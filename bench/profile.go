package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile is a runtime/pprof CPU profile of one phase of a traced
// run, written under bench/out and reduced with `go tool pprof -top`.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// profileTop is a profile's flat CPU seconds summed by layer.
type profileTop struct {
	// total is the profile's total sampled CPU seconds.
	total float64
	// byLayer sums flat seconds of every function by layerOf.
	byLayer map[string]float64
	// bbr sums flat seconds of internal/cca functions with BBR in the
	// name: the workload-separation check reads it.
	bbr float64
}

// share is a layer's part of the profile total (0 when it is empty).
func (t profileTop) share(layers ...string) float64 {
	if t.total == 0 {
		return 0
	}
	var s float64
	for _, l := range layers {
		s += t.byLayer[l]
	}
	return s / t.total
}

// attributed is the sum over all layers; it equals total up to the
// rounding pprof applies to each printed row.
func (t profileTop) attributed() float64 {
	var s float64
	for _, v := range t.byLayer {
		s += v
	}
	return s
}

// pprofTop runs `go tool pprof -top` on a profile (toolchain only, no
// module dependency) and reduces its rows. Extra arguments select a
// subset of samples, e.g. -tagfocus.
func pprofTop(profile string, extra ...string) (profileTop, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0"}, extra...)
	out, err := exec.Command("go", append(args, profile)...).Output()
	if err != nil {
		return profileTop{}, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return reduceTop(string(out))
}

// reduceTop parses the text `go tool pprof -top` prints:
//
//	Showing nodes accounting for 8.19s, 100% of 8.19s total
//	      flat  flat%   sum%        cum   cum%
//	     1.50s 18.32% 18.32%      2.10s 25.64%  prudentia/internal/sim.(*Engine).Step
func reduceTop(text string) (profileTop, error) {
	top := profileTop{byLayer: map[string]float64{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inRows, sawTotal := false, false
	for sc.Scan() {
		line := sc.Text()
		if !inRows {
			if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
				v, err := parseProfSeconds(strings.TrimSuffix(line[i+len("% of "):], " total"))
				if err != nil {
					return top, fmt.Errorf("pprof total in %q: %w", line, err)
				}
				top.total, sawTotal = v, true
			}
			f := strings.Fields(line)
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		flat, err := parseProfSeconds(f[0])
		if err != nil {
			return top, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.Join(f[5:], " ")
		top.byLayer[layerOf(name)] += flat
		if strings.HasPrefix(name, "prudentia/internal/cca.") && strings.Contains(strings.ToLower(name), "bbr") {
			top.bbr += flat
		}
	}
	if err := sc.Err(); err != nil {
		return top, err
	}
	if !sawTotal {
		return top, fmt.Errorf("pprof output has no total line")
	}
	return top, nil
}

// parseProfSeconds reads a pprof duration such as 1.50s, 20ms, 1.2mins
// or a bare 0.
func parseProfSeconds(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		mul    float64
	}{{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.mul, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// layerOf maps a symbol to the ledger's layer: the repo's own packages
// by name (abr and browser belong to the service models), the Go
// runtime, the socket path (syscalls, poller), net/http and friends,
// and the benchmark's own code.
func layerOf(symbol string) string {
	pkg := symbolPackage(symbol)
	if rest, ok := strings.CutPrefix(pkg, "prudentia/internal/"); ok {
		switch rest {
		case "abr", "browser":
			return "services"
		}
		return rest
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "prudentia/bench"):
		return "bench"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" || pkg == "internal/poll":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/bytealg" || pkg == "internal/cpu" || pkg == "sync" || pkg == "sync/atomic" || strings.HasPrefix(pkg, "internal/sync"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" || pkg == "context" || pkg == "io" || pkg == "time":
		return "nethttp"
	}
	return "other"
}

// symbolPackage cuts the import path off a symbol such as
// prudentia/internal/sim.(*Engine).Step or
// prudentia/internal/obs.sortedKeys[go.shape.int64].
func symbolPackage(symbol string) string {
	head := symbol
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}
