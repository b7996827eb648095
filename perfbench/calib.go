package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark machine is a shared VM whose speed drifts with its
// neighbours' load: the same run took three times as long as twenty
// minutes before, and the chunks of one run differ by half again. The
// program's own times cannot tell that drift from a change to the
// program. So a block runs as a few chunks with a short calibration
// slice between every two, a fixed piece of work that uses no code of
// the repository, and a chunk's times are scaled by calibRef over the
// mean time of the slices on either side of it: the time the chunk would
// have taken on a machine that runs a slice in calibRef.
//
// Which work tracks the program's slow-downs was measured on the
// reference VM while its speed drifted, with several kinds of slice run
// side by side between the same chunks: dependent loads over a table
// larger than the caches tracked the install workload best, a JSON round
// trip of a spec-like document (reflection, maps, strings, allocation)
// tracked solve and fleet best, SHA-256 alone and loads from DRAM alone
// tracked badly. A slice does both of the first two.

// calibRef is the nominal time of one calibration slice: about what a
// slice takes on the 2-vCPU reference VM when it is not contended, so
// that scaled times read about as that machine measures them.
const calibRef = 7 * time.Millisecond

const (
	calibRounds = 3        // passes of dependent loads and key lookups per slice
	calibLoads  = 10 << 10 // dependent loads per pass
	calibJSON   = 8        // JSON round trips per slice

	calibChase = 1 << 21 // entries of the dependent-load cycle (8 MiB)
	calibKeys  = 1 << 15 // keys of the hash table
	calibKey   = 16      // bytes per key
	calibSlots = 2 * calibKeys
)

// calibrator holds the calibration workload's inputs. The tables live
// outside the Go heap, so the program's collections never scan them.
type calibrator struct {
	next  []uint32 // one random cycle through every index
	keys  []byte   // calibKeys keys of calibKey bytes
	slots []uint32 // key index + 1, or 0 for an empty slot
	doc   []byte   // the JSON document
	// mallocs and allocBytes count what the slices allocated, which the
	// phase leaves out of the program's allocations.
	mallocs, allocBytes uint64
	sink                uint32 // keeps the slices' results live
}

type calibDoc struct {
	Name  string            `json:"name"`
	Deps  []string          `json:"deps"`
	Vars  map[string]string `json:"variants"`
	Nodes []calibNode       `json:"nodes"`
}

type calibNode struct {
	Hash    string   `json:"hash"`
	Version string   `json:"version"`
	Flags   []string `json:"flags"`
}

func newCalibrator() (*calibrator, error) {
	size := 4*calibChase + calibKeys*calibKey + 4*calibSlots
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{}
	c.next = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibChase)
	mem = mem[4*calibChase:]
	c.keys, mem = mem[:calibKeys*calibKey], mem[calibKeys*calibKey:]
	c.slots = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibSlots)

	rng := rand.New(rand.NewPCG(1, 2))
	perm := rng.Perm(calibChase)
	for i, p := range perm {
		c.next[p] = uint32(perm[(i+1)%calibChase])
	}
	for i := range calibKeys {
		k := c.key(i)
		binary.LittleEndian.PutUint64(k, rng.Uint64())
		binary.LittleEndian.PutUint64(k[8:], uint64(i))
		c.slots[c.find(k)] = uint32(i + 1)
	}
	d := calibDoc{Name: "root", Vars: map[string]string{}}
	for i := range 200 {
		d.Deps = append(d.Deps, fmt.Sprintf("dep%d", i))
		d.Vars[fmt.Sprintf("v%d", i)] = fmt.Sprint(i * 7)
		d.Nodes = append(d.Nodes, calibNode{
			Hash:    fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()),
			Version: fmt.Sprintf("1.2.%d", i),
			Flags:   []string{"+shared", "~debug", "cflags=-O2"},
		})
	}
	if c.doc, err = json.Marshal(d); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *calibrator) key(i int) []byte { return c.keys[i*calibKey : (i+1)*calibKey] }

// find returns the slot that holds k, or the empty slot where it goes.
func (c *calibrator) find(k []byte) uint32 {
	h := uint32(2166136261) // FNV-1a
	for _, b := range k {
		h = (h ^ uint32(b)) * 16777619
	}
	s := h % calibSlots
	for c.slots[s] != 0 && !bytes.Equal(c.key(int(c.slots[s]-1)), k) {
		s = (s + 1) % calibSlots
	}
	return s
}

// sample is one calibration slice's wall and CPU time.
type sample struct{ wall, cpu time.Duration }

// slice runs one calibration slice with the garbage collector off, so
// that no collection of the program's heap runs in it (turning it off
// first lets a collection in flight finish), and counts what it
// allocated.
func (c *calibrator) slice() sample {
	gc := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var sink, p uint32
	for range calibRounds {
		for range calibLoads {
			p = c.next[p]
		}
		for i := range calibKeys {
			sink += c.slots[c.find(c.key(i))]
		}
	}
	for range calibJSON {
		var d calibDoc
		if err := json.Unmarshal(c.doc, &d); err != nil {
			panic(err)
		}
		out, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		sink += uint32(len(out))
	}
	s := sample{time.Since(t0), cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gc)
	c.sink += sink + p
	c.mallocs += m1.Mallocs - m0.Mallocs
	c.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return s
}

// speed is how fast the machine ran during some measured work, from the
// calibration slices on either side of it: the factors that scale the
// work's wall-clock and CPU times to the reference machine.
type speed struct{ wall, cpu float64 }

func speedOf(before, after sample) speed {
	return speed{
		wall: 2 * float64(calibRef) / float64(before.wall+after.wall),
		cpu:  2 * float64(calibRef) / float64(max(before.cpu+after.cpu, 1)),
	}
}

// bracket runs f between two calibration slices.
func (c *calibrator) bracket(f func() error) (speed, error) {
	before := c.slice()
	if err := f(); err != nil {
		return speed{}, err
	}
	return speedOf(before, c.slice()), nil
}
