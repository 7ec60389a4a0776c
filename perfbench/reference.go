package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The reference loop measures how fast the host runs the kind of work
// the workloads are made of, right now. On a shared host the other
// tenants' load changes that speed over minutes, by up to 2x, and the
// workloads slow down with it. In a six-minute trial of 1 s fuzz-oracle
// campaigns interleaved with the loop, the median campaign time of
// 20 s blocks varied by up to 1.76x, its ratio to the loop's time by up
// to 1.23x. The benchmark therefore scales its timings by the loop's
// speed in the same run (reference.scale).
//
// The loop has two parts, timed separately (refParts):
//   - chase: dependent loads along one random cycle through refWords
//     4-byte words (64 MiB), so every step misses the private caches;
//   - map: updates of a Go map of about 100k int keys, with a small
//     allocation every thousand updates, which stays mostly in the
//     private caches and keeps the allocator busy.
//
// The loop runs in a child process, so its buffer is in neither the
// workload's heap (where it would change the GC's pacing) nor its
// resident set.
const (
	refWords = 16 << 20
	// A workload samples the loop at its iteration boundaries: once
	// for every refEvery since the last sample, at most refBurst times
	// in a row. A sample takes about 0.12 s, so the loop takes about
	// an eighth of the window.
	refEvery = time.Second
	refBurst = 5
)

// refPart is one timed part of the reference loop.
type refPart struct {
	name string
	// ops is the number of steps in one sample.
	ops int
	// nominalNs is the step time the timings are scaled to: a typical
	// reading on a quiet 2-CPU Xeon VM.
	nominalNs float64
}

var refParts = []refPart{
	{"chase", 3 << 17, 175},
	{"map", 1_200_000, 45},
}

// refFlag makes the benchmark binary serve the reference loop.
const refFlag = "--reference-loop"

// serveReference is the child's side: for every line read from in it
// runs one sample and writes each part's step time in ns, until in is
// closed.
func serveReference(in io.Reader, out io.Writer) error {
	next := make([]int32, refWords)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's algorithm gives one cycle through every word; the
	// fixed xorshift stream makes it the same cycle in every run.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var p int32
	var keep []int
	parts := []func(ops int){
		func(ops int) {
			for i := 0; i < ops; i++ {
				p = next[p]
			}
		},
		func(ops int) {
			m := map[int]int{}
			for i := 0; i < ops; i++ {
				m[i*7919%100003] += i
				if i%1000 == 0 {
					keep = make([]int, 1000)
				}
			}
		},
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var line []string
		for i, part := range refParts {
			// Collect first, so that no GC cycle lands in a part (one
			// sample allocates far less than the live buffer).
			runtime.GC()
			t0 := time.Now()
			parts[i](part.ops)
			ns := float64(time.Since(t0).Nanoseconds()) / float64(part.ops)
			line = append(line, strconv.FormatFloat(ns, 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(out, strings.Join(line, " ")); err != nil {
			return err
		}
	}
	runtime.KeepAlive(keep)
	return sc.Err()
}

// reference is the parent's handle on the reference loop's process.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	// ns holds each part's step times, in ns, one per sample.
	ns   [][]float64
	last time.Time
	done bool
	err  error
}

// startReference starts the reference loop's process.
func startReference() (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, refFlag)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewReader(out), ns: make([][]float64, len(refParts))}, nil
}

// samples is the number of samples taken so far.
func (r *reference) samples() int { return len(r.ns[0]) }

// sample runs the loop once while the caller waits.
func (r *reference) sample() error {
	if _, err := io.WriteString(r.in, "\n"); err != nil {
		return err
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference loop: %v", err)
	}
	f := strings.Fields(line)
	if len(f) != len(refParts) {
		return fmt.Errorf("reference loop: %q", line)
	}
	for i := range refParts {
		ns, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return fmt.Errorf("reference loop: %q", line)
		}
		r.ns[i] = append(r.ns[i], ns)
	}
	r.last = time.Now()
	return nil
}

// maybeSample samples the loop once for every refEvery that has
// passed since the last sample, at most refBurst times.
func (r *reference) maybeSample() error {
	n := min(int(time.Since(r.last)/refEvery), refBurst)
	for i := 0; i < n; i++ {
		if err := r.sample(); err != nil {
			return err
		}
	}
	return nil
}

// scale is what a timing measured while samples [from, to) were taken
// is multiplied by to read as on the nominal host: the geometric mean
// of the parts' nominal ÷ mean step times. A workload's time adds up
// over the window, short bursts of interference included, so the
// loop's mean, not its median, is the matching measure: in five quiet
// fuzz-oracle runs the scaled throughput's spread was 0.067 with the
// mean and 0.091 with the median (0.076 unscaled).
func (r *reference) scale(from, to int) float64 {
	s := 1.0
	for i, p := range refParts {
		s *= p.nominalNs / mean(r.ns[i][from:to])
	}
	return math.Pow(s, 1/float64(len(refParts)))
}

// stop ends the reference loop's process and waits for it. Later
// calls return the first call's result.
func (r *reference) stop() error {
	if !r.done {
		r.done = true
		r.in.Close()
		r.err = r.cmd.Wait()
	}
	return r.err
}
