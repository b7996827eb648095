package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

// A verb is one entry of the command table: a leaf with a run function, or
// a group of child verbs that may also run itself when given no arguments.
// One walk over the table does dispatch, flag parsing, arity checks, -h,
// and help.
type verb struct {
	name, args, help string // args is the argument synopsis
	// min and max bound the positional arguments (max == many: no bound);
	// argErr, when set, is the error for a wrong count.
	min, max int
	argErr   string
	// flags defines the verb's flags on fs and returns its run function;
	// verbs without flags set run instead.
	flags    func(fs *flag.FlagSet) runFunc
	run      runFunc
	children []*verb
}

type runFunc func(w io.Writer, s *core.Spack, args []string) error

const many = -1

func run(w io.Writer, s *core.Spack, cmd string, args []string) error {
	v := root.child(cmd)
	if v == nil {
		usage(os.Stderr)
		return fmt.Errorf("unknown command %q", cmd)
	}
	return v.exec(w, s, cmd, args)
}

// usage prints the full reference: every verb and the global flags.
func usage(w io.Writer) { root.usage(w, "", flag.CommandLine) }

// cmdHelp prints the -h text of the verb named by args, or the full
// reference when args is empty.
func cmdHelp(w io.Writer, _ *core.Spack, args []string) error {
	v, path := root, ""
	for _, name := range args {
		path = join(path, name)
		if v = v.child(name); v == nil {
			return fmt.Errorf("unknown command %q", path)
		}
	}
	if v == root {
		usage(w)
		return nil
	}
	fs, _ := v.bind(w, path)
	fs.Usage()
	return nil
}

// exec runs v, reached by path (e.g. "buildcache keys"), on args.
func (v *verb) exec(w io.Writer, s *core.Spack, path string, args []string) error {
	fs, act := v.bind(w, path)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	args = fs.Args()
	if len(v.children) > 0 && (len(args) > 0 || act == nil) {
		if len(args) == 0 {
			return fmt.Errorf("%s needs a subcommand: %s", v.name, v.want())
		}
		c := v.child(args[0])
		if c == nil {
			return fmt.Errorf("unknown %s subcommand %q (want %s)", v.name, args[0], v.want())
		}
		return c.exec(w, s, join(path, c.name), args[1:])
	}
	if len(args) < v.min || (v.max != many && len(args) > v.max) {
		if v.argErr != "" {
			return errors.New(v.argErr)
		}
		return fmt.Errorf("usage: spack-go %s", join(path, v.args))
	}
	return act(w, s, args)
}

// bind returns a fresh flag set for v, reporting to w, with v's flags
// defined on it, and v's run function.
func (v *verb) bind(w io.Writer, path string) (*flag.FlagSet, runFunc) {
	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	fs.SetOutput(w)
	fs.Usage = func() { v.usage(w, path, fs) }
	if v.flags != nil {
		return fs, v.flags(fs)
	}
	return fs, v.run
}

// usage prints v's synopsis and help line, every verb beneath it (one line
// each, help in a column), and the flags defined on fs.
func (v *verb) usage(w io.Writer, path string, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: spack-go %s\n\n%s\n", join(path, v.args), v.help)
	if len(v.children) > 0 {
		fmt.Fprintf(w, "\ncommands:\n")
		v.walk(path, func(path string, c *verb) {
			const col = 34
			if head := join(path, c.args); len(head) < col {
				fmt.Fprintf(w, "  %-*s %s\n", col, head, c.help)
			} else {
				fmt.Fprintf(w, "  %s\n  %-*s %s\n", head, col, "", c.help)
			}
		})
	}
	nflags := 0
	fs.VisitAll(func(*flag.Flag) { nflags++ })
	if nflags > 0 {
		fmt.Fprintf(w, "\nflags:\n")
		out := fs.Output()
		fs.SetOutput(w)
		fs.PrintDefaults()
		fs.SetOutput(out)
	}
}

// walk calls fn on every verb beneath v, depth first, with its path.
func (v *verb) walk(path string, fn func(path string, c *verb)) {
	for _, c := range v.children {
		fn(join(path, c.name), c)
		c.walk(join(path, c.name), fn)
	}
}

func (v *verb) child(name string) *verb {
	for _, c := range v.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// want lists v's children for error messages: "a, b, or c".
func (v *verb) want() string {
	names := make([]string, len(v.children))
	for i, c := range v.children {
		names[i] = c.name
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

func join(a, b string) string { return strings.TrimSpace(a + " " + b) }
