package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/env"
)

func cmdEnvList(w io.Writer, s *core.Spack, _ []string) error {
	for _, name := range env.List(s.FS, core.EnvRoot) {
		fmt.Fprintln(w, name)
	}
	return nil
}

func cmdEnvCreate(fs *flag.FlagSet) runFunc {
	viewPath := fs.String("view", "", "maintain a link forest for the environment at this path")
	projection := fs.String("projection", "", "view link-name template (default ${PACKAGE}-${VERSION})")
	conflict := fs.String("conflict", "", "view conflict policy: user or site")
	return func(w io.Writer, s *core.Spack, args []string) error {
		name, specs := args[0], args[1:]
		e, err := env.Create(s.FS, core.EnvRoot, name, specs)
		if err != nil {
			return err
		}
		if *viewPath != "" {
			e.Manifest.View = &env.View{Path: *viewPath, Projection: *projection, Conflict: *conflict}
			if err := e.SaveManifest(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "==> created environment %s in %s\n", name, e.Dir)
		return nil
	}
}

// cmdEnvEdit is `env add` when add is set, else `env rm`.
func cmdEnvEdit(add bool) runFunc {
	return func(w io.Writer, s *core.Spack, args []string) error {
		e, err := env.Open(s.FS, core.EnvRoot, args[0])
		if err != nil {
			return err
		}
		for _, expr := range args[1:] {
			if add {
				err = e.AddSpec(expr)
			} else {
				err = e.RemoveSpec(expr)
			}
			if err != nil {
				return err
			}
		}
		if err := e.SaveManifest(); err != nil {
			return err
		}
		fmt.Fprintf(w, "==> %s now has %d specs\n", e.Name, len(e.Manifest.Specs))
		return nil
	}
}

func cmdEnvInstall(fs *flag.FlagSet) runFunc {
	jobs := fs.Int("jobs", 0, "parallel build jobs for this environment install")
	reuse := fs.Bool("reuse", false, "concretize against the lockfile and store, preferring installed hashes")
	return func(w io.Writer, s *core.Spack, args []string) error {
		name, specs := args[0], args[1:]
		e, err := env.Open(s.FS, core.EnvRoot, name)
		if err != nil && len(specs) > 0 {
			// One-shot convenience: create the environment on the fly when
			// specs are given, so a single invocation demos the full workflow.
			e, err = env.Create(s.FS, core.EnvRoot, name, nil)
		}
		if err != nil {
			return err
		}
		for _, expr := range specs {
			if err := e.AddSpec(expr); err != nil {
				return err
			}
		}
		if len(specs) > 0 {
			if err := e.SaveManifest(); err != nil {
				return err
			}
		}
		h := s.EnvHost()
		if *jobs > 0 {
			h.Builder.Jobs = *jobs
		}
		h.Reuse = *reuse
		res, err := e.Apply(h)
		if err != nil {
			return err
		}
		p := res.Plan
		if p.NoOp() {
			fmt.Fprintf(w, "==> %s: lockfile up to date, nothing to do (%d roots installed)\n", e.Name, len(p.Keep))
			return nil
		}
		fmt.Fprintf(w, "==> %s: %d added, %d kept, %d removed (one transaction)\n",
			e.Name, len(p.Add), len(p.Keep), len(p.Remove))
		for i, ch := range p.Add {
			packages := 0
			if i < len(res.Builds) {
				packages = len(res.Builds[i].Reports)
			}
			fmt.Fprintf(w, "    add  %-24s %s (%d packages)\n", ch.Expr, short(ch.Hash), packages)
		}
		for _, ch := range p.Remove {
			if reason, skipped := res.SkippedRemove[ch.Hash]; skipped {
				fmt.Fprintf(w, "    keep %-24s %s (%s)\n", ch.Expr, short(ch.Hash), reason)
			} else {
				fmt.Fprintf(w, "    rm   %-24s %s\n", ch.Expr, short(ch.Hash))
			}
		}
		if len(res.Modules) > 0 {
			fmt.Fprintf(w, "    %d module files\n", len(res.Modules))
		}
		if e.Manifest.View != nil {
			fmt.Fprintf(w, "    %d view links under %s\n", len(res.Links), e.Manifest.View.Path)
		}
		return nil
	}
}

func cmdEnvStatus(w io.Writer, s *core.Spack, args []string) error {
	e, err := env.Open(s.FS, core.EnvRoot, args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> environment %s (%s)\n", e.Name, e.Dir)
	for _, expr := range e.Manifest.Specs {
		fmt.Fprintf(w, "    spec %s\n", expr)
	}
	if v := e.Manifest.View; v != nil {
		fmt.Fprintf(w, "    view %s (conflict policy %s)\n", v.Path, v.ConflictPolicy())
	}
	p, err := e.Plan(s.EnvHost())
	if err != nil {
		return err
	}
	if p.NoOp() {
		fmt.Fprintf(w, "==> lockfile up to date: %d roots installed\n", len(p.Keep))
		return nil
	}
	fmt.Fprintf(w, "==> pending: %d to add, %d to remove (run `env install %s`)\n",
		len(p.Add), len(p.Remove), e.Name)
	return nil
}

func cmdEnvUninstall(w io.Writer, s *core.Spack, args []string) error {
	e, err := env.Open(s.FS, core.EnvRoot, args[0])
	if err != nil {
		return err
	}
	res, err := e.Uninstall(s.EnvHost())
	if err != nil {
		return err
	}
	kept := make([]string, 0, len(res.SkippedRemove))
	for h := range res.SkippedRemove {
		kept = append(kept, h)
	}
	sort.Strings(kept)
	fmt.Fprintf(w, "==> uninstalled %s: %d roots removed, %d kept\n", e.Name, len(res.Removed), len(kept))
	for _, h := range kept {
		fmt.Fprintf(w, "    kept %s (%s)\n", short(h), res.SkippedRemove[h])
	}
	return nil
}
