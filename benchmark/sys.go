package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// envHeader heads every file the benchmark writes, so a number can be
// traced back to the box, the revision and the inputs that produced it.
type envHeader struct {
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	PinnedCPU  int              `json:"pinned_cpu"` // -1: not pinned
	Shards     int              `json:"shards"`
	GoVersion  string           `json:"go_version"`
	GitRev     string           `json:"git_rev"`
	GitDirty   bool             `json:"git_dirty"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	OpCounts   map[string]int64 `json:"op_counts"`
}

func newEnv(seed uint64, seconds float64, sz sizes) envHeader {
	env := envHeader{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PinnedCPU:  -1,
		GoVersion:  runtime.Version(),
		GitRev:     "unknown", // a source checkout without .git has none
		Seed:       seed,
		Seconds:    seconds,
		OpCounts:   sz.opCounts(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.GitRev = s.Value
			case "vcs.modified":
				env.GitDirty = s.Value == "true"
			}
		}
	}
	return env
}

// maxProcs is the most processors the benchmark ever uses, whatever the
// box has: load comes from one process on at most two.
const maxProcs = 2

// setProcs sets GOMAXPROCS to n, or to what the box has if that is less.
func setProcs(n int) { runtime.GOMAXPROCS(min(runtime.NumCPU(), n)) }

// cpuMask is a scheduler affinity mask, one bit per processor.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// affinity returns the processors the calling thread may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setAffinity restricts every thread of the process to m. Threads started
// later inherit the mask of the thread that starts them; the second pass
// catches one started during the first.
func setAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread has exited since the directory was read.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return nil
}

// quietCPU picks, among the processors in allowed, the one that has taken
// the fewest device interrupts since boot. On the sandbox the virtual
// disk's completions all land on one vCPU: six runs of durable_ingest
// pinned there ranged over 13 % of their median, on the other vCPU over
// 3.5 %, and left to the scheduler over 17 %.
func quietCPU(allowed cpuMask) int {
	best, bestIRQs := -1, uint64(0)
	irqs := deviceInterrupts()
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if !allowed.has(cpu) {
			continue
		}
		n := uint64(0)
		if cpu < len(irqs) {
			n = irqs[cpu]
		}
		if best < 0 || n < bestIRQs {
			best, bestIRQs = cpu, n
		}
	}
	return best
}

// deviceInterrupts reads /proc/interrupts; it returns nil when the file
// cannot be read.
func deviceInterrupts() []uint64 {
	b, err := os.ReadFile("/proc/interrupts")
	if err != nil {
		return nil
	}
	return sumDeviceInterrupts(string(b))
}

// sumDeviceInterrupts sums, per processor column, the numbered lines of
// /proc/interrupts text: those are device interrupts; timer and
// inter-processor ones are named, not numbered.
func sumDeviceInterrupts(text string) []uint64 {
	lines := strings.Split(text, "\n")
	sums := make([]uint64, len(strings.Fields(lines[0])))
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if _, err := strconv.Atoi(strings.TrimSuffix(f[0], ":")); err != nil {
			continue
		}
		for i := range sums {
			if i+1 < len(f) {
				n, _ := strconv.ParseUint(f[i+1], 10, 64) // a non-number ends the counts
				sums[i] += n
			}
		}
	}
	return sums
}

// pinToQuietCPU moves the whole process onto one processor and returns it
// with a function that undoes the move. Where the kernel refuses, the
// process stays where it is and cpu is -1.
func pinToQuietCPU() (cpu int, unpin func()) {
	old, err := affinity()
	if err != nil {
		return -1, func() {}
	}
	cpu = quietCPU(old)
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(one); err != nil {
		setAffinity(old)
		return -1, func() {}
	}
	return cpu, func() { setAffinity(old) }
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta is live heap growth since base, clamped at zero.
func heapDelta(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// benchDir is this directory relative to the working directory: the
// driver runs from the repo root, a developer may run from here.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "main.go")); err == nil {
		return "benchmark"
	}
	return "."
}

// outDir is where traces, result files and scratch WAL directories go;
// it is git-ignored.
func outDir() (string, error) {
	d := filepath.Join(benchDir(), "out")
	return d, os.MkdirAll(d, 0o755)
}
