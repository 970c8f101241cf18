package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The tests run the real code paths at test sizes. They assert on
// determinism, arithmetic and names, never on a time.

// shortSizes run every code path in well under a second each, with no
// claim on the numbers.
var shortSizes = sizes{
	libScale:       4096,
	chainedSources: 64, chainedDegree: 512, chainedOps: 8 << 10,
	mixSources: 1 << 12, mixOps: 32 << 10, mixViewMuts: 8 << 10,
	durWindow: 1 << 13, durNodes: 1 << 13, durBatches: 32, durSampleEdge: 500,
	srvSources: 1 << 10, pipeCmds: 4096, olCmds: 2000, olRate: 10_000,
	anScale: 256, anChurn: 500,
	probe: probeSizes{chains: 16, chainKeys: 512, coreScale: 4096, chainedSrc: 16, chainedOps: 2048, inlineSrc: 1 << 10,
		mixOps: 8 << 10, window: 1 << 12, batches: 32, csrScale: 512, srvSources: 1 << 10, ladderCmds: 2048, d1Cmds: 256,
		rates: []int{5_000, 10_000}, sweepSeconds: 0.1, fsyncAppends: 8, fsyncBudget: 100 * time.Millisecond,
		snapshotOpens: 3, csrJobs: 1, recoverTailBatches: 8, respCmds: 2048, scalingRepeat: 1},
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.inputHash(7, shortSizes), w.inputHash(7, shortSizes), w.inputHash(8, shortSizes)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed to %x", w.name, a)
		}
	}
}

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {1 << 20, 99},
	} {
		if got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if supports(9999, 99.9) || !supports(10000, 99.9) {
		t.Errorf("p999 must need exactly 10000 samples")
	}
}

func TestTailSummary(t *testing.T) {
	// Three rounds of 1000 samples 1..1000, one of them shifted far up:
	// per-round percentiles are medianed, so the disturbed round is ignored.
	round := func(shift float64) []float64 {
		r := make([]float64, 1000)
		for i := range r {
			r[i] = float64(i+1) + shift
		}
		return r
	}
	rounds := [][]float64{round(0), round(5000), round(0)}
	if tail, tailP, n := tailSummary(rounds); tail != 990 || tailP != 99 || n != 3000 {
		t.Errorf("per-round summary = %v p%v %v, want 990 p99 3000", tail, tailP, n)
	}
	if p50 := roundPercentiles(rounds, 50); p50[0] != 500 || p50[1] != 5500 || p50[2] != 500 {
		t.Errorf("per-round medians = %v, want 500 5500 500", p50)
	}
	// One sample per round: pooled, and 40 samples support p75 at most.
	var jobs [][]float64
	for i := 1; i <= 40; i++ {
		jobs = append(jobs, []float64{float64(i)})
	}
	if tail, tailP, n := tailSummary(jobs); tail != 30 || tailP != 75 || n != 40 {
		t.Errorf("pooled summary = %v p%v %v, want 30 p75 40", tail, tailP, n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v, want 2.75 8.25", q1, q3)
	}
}

func TestDeviceInterruptsCountsNumberedLinesPerCPU(t *testing.T) {
	const text = `           CPU0       CPU1
 26:          3          0  IO-APIC   4-edge      ttyS0
 37:          0     378224 PCI-MSIX-0000:00:02.0   1-edge      virtio1-req.0
 44:      17513          2 PCI-MSIX-0000:00:05.0   1-edge      virtio4-rx
LOC:   16501850   16958982   Local timer interrupts
ERR:          0
`
	got := sumDeviceInterrupts(text)
	if len(got) != 2 || got[0] != 17516 || got[1] != 378226 {
		t.Errorf("sumDeviceInterrupts = %v, want [17516 378226]", got)
	}
	var both cpuMask
	both[0] = 3
	if cpu := quietCPU(both); cpu != 0 && cpu != 1 {
		t.Errorf("quietCPU = %d, want an allowed processor", cpu)
	}
}

func TestPinMovesTheProcessAndUnpinRestoresIt(t *testing.T) {
	before, err := affinity()
	if err != nil {
		t.Skip(err)
	}
	cpu, unpin := pinToQuietCPU()
	if cpu < 0 {
		t.Skip("the kernel refused sched_setaffinity")
	}
	during, _ := affinity()
	unpin()
	after, _ := affinity()
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if !before.has(cpu) || during != one {
		t.Errorf("pinned to %d: mask %v, was %v", cpu, during[0], before[0])
	}
	if after != before {
		t.Errorf("unpin left mask %v, want %v", after[0], before[0])
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: layerBenchmark, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerSharded, Start: 10, End: 60},
		// Two children of span 1 that overlap each other (a batch fanned
		// out across shards) and one that sticks out past its parent.
		{ID: 2, Parent: 1, Layer: layerWAL, Start: 20, End: 40},
		{ID: 3, Parent: 1, Layer: layerWAL, Start: 30, End: 50},
		{ID: 4, Parent: 1, Layer: layerWAL, Start: 55, End: 70},
		{ID: 5, Parent: 0, Layer: layerWAL, Start: 80, End: 90},
	}
	self := selfTimes(spans)
	// benchmark: 100 − (50 + 10); sharded: 50 − ([20,50] ∪ [55,60]) = 15;
	// wal: 20 + 20 + 15 + 10.
	want := map[string]int64{layerBenchmark: 40, layerSharded: 15, layerWAL: 65}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
}

// stallingServer answers each command with ":1" but sleeps once, before
// answering command stallAt.
func stallingServer(t *testing.T, stallAt int, stall time.Duration) (*testServer, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for i := 0; ; i++ {
			// Every test command is "*3" + 3 bulk strings: 7 lines.
			for l := 0; l < 7; l++ {
				if _, err := br.ReadSlice('\n'); err != nil {
					return
				}
			}
			if i == stallAt {
				time.Sleep(stall)
			}
			if _, err := c.Write([]byte(":1\r\n")); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{conn: conn, br: bufio.NewReader(conn)}
	return ts, func() { conn.Close(); ln.Close(); <-done }
}

func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const n, stallAt = 60, 10
	const gap, stall = time.Millisecond, 30 * time.Millisecond
	ts, stop := stallingServer(t, stallAt, stall)
	defer stop()
	cs := &cmdStream{}
	due := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		cs.off = append(cs.off, len(cs.enc))
		cs.enc = appendCmd(cs.enc, "g.query", uint64(i), 1)
		cs.want = append(cs.want, 1)
		due[i] = time.Duration(i) * gap
	}
	cs.off = append(cs.off, len(cs.enc))
	res := ts.openLoop(cs, due, nil, -1, 0)
	if res.err != nil || res.bad != 0 {
		t.Fatalf("open loop: err %v, %d wrong replies", res.err, res.bad)
	}
	// The sender kept to its schedule during the stall, so the command
	// due 10 ms into a 30 ms stall waited about 20 ms for its reply. A
	// closed loop would have sent it after the stall and seen no wait.
	queued := res.lat[stallAt+10]
	if queued < 10_000 {
		t.Errorf("command due mid-stall saw %.0f µs; the stall was not charged to it", queued)
	}
	if before := res.lat[stallAt-5]; before > queued/2 {
		t.Errorf("command before the stall saw %.0f µs, mid-stall one %.0f µs", before, queued)
	}
	if res.backlogMax < 10 {
		t.Errorf("backlog peaked at %d; the sender waited for replies", res.backlogMax)
	}
}

func TestCountsRepeatExactlyForASeed(t *testing.T) {
	run := func() layerMetrics {
		m := layerMetrics{}
		_, failed, err := runProbes(3, shortSizes, t.TempDir(), m)
		if err != nil {
			t.Fatal(err)
		}
		if failed != 0 {
			t.Fatalf("%d probe checks failed", failed)
		}
		return m
	}
	a, b := run(), run()
	for _, name := range exactCounts {
		if _, ok := a[name]; !ok {
			t.Errorf("%s was not measured", name)
		}
		if a[name] != b[name] {
			t.Errorf("%s = %v then %v for the same seed", name, a[name], b[name])
		}
	}
}

func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sys, err := w.build(5, shortSizes, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			tr := newTracer()
			var attempted, failed int64
			for r := 0; r < 3; r++ {
				rs := sys.round(r, tr)
				attempted += rs.attempted
				failed += rs.failed
				if rs.ops == 0 || len(rs.lat) == 0 {
					t.Errorf("round %d did no work", r)
				}
			}
			if sys.finish != nil {
				a, f := sys.finish()
				attempted += a
				failed += f
			}
			if failed != 0 || attempted == 0 {
				t.Errorf("%d of %d checks failed", failed, attempted)
			}
			if sys.heapEdges == 0 {
				t.Errorf("heap was never measured")
			}
			if len(tr.spans) == 0 {
				t.Errorf("traced rounds recorded no spans")
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	compare := func(kind string, inJSON, inProgram []string) {
		t.Helper()
		if strings.Join(inJSON, " ") != strings.Join(inProgram, " ") {
			t.Errorf("%s differ:\n BENCHMARK.json: %v\n program:        %v", kind, inJSON, inProgram)
		}
		for _, n := range inJSON {
			if !nameRE.MatchString(n) {
				t.Errorf("%s name %q is not a valid name", kind, n)
			}
			if seen[n] {
				t.Errorf("name %q is used twice", n)
			}
			seen[n] = true
		}
	}
	var js, prog []string
	for _, w := range bj.Workloads {
		js = append(js, w.Name+"|"+w.Why)
	}
	for _, w := range workloads {
		if !w.diagnostic {
			prog = append(prog, w.name+"|"+w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters", w.name)
		}
	}
	if strings.Join(js, "\n") != strings.Join(prog, "\n") {
		t.Errorf("workloads differ:\n BENCHMARK.json: %v\n program:        %v", js, prog)
	}
	js, prog = nil, nil
	hasSetup := false
	for _, m := range bj.EndToEnd {
		js = append(js, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEndMetrics {
		prog = append(prog, m.name)
	}
	compare("end-to-end metrics", js, prog)
	if !hasSetup {
		t.Errorf("setup_s (s, lower) is missing")
	}
	js, prog = nil, nil
	for _, m := range bj.PerLayer {
		js = append(js, m.Name)
	}
	for _, m := range perLayerMetrics {
		prog = append(prog, m.name)
	}
	compare("per-layer metrics", js, prog)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not a valid name", w.name)
		}
	}
	for i, m := range bj.EndToEnd {
		if m.Unit != endToEndMetrics[i].unit {
			t.Errorf("unit of %s: %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, endToEndMetrics[i].unit)
		}
	}
	for i, m := range bj.PerLayer {
		if i < len(perLayerMetrics) && m.Unit != perLayerMetrics[i].unit {
			t.Errorf("unit of %s: %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, perLayerMetrics[i].unit)
		}
	}
}

// TestRunEmitsEveryMetric runs one workload end to end, untraced and
// traced, and checks that exactly the declared metrics come out.
func TestRunEmitsEveryMetric(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // out/ lands in the temp dir
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	setProcs(maxProcs)
	w := findWorkload("durable_ingest")
	res, err := runWorkload(w, 2, 0.05, false, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("untraced run: %+v", res)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}
	for _, m := range endToEndMetrics {
		if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("end-to-end %s = %+v (present %v)", m.name, v, ok)
		}
	}
	res, err = runWorkload(w, 2, 0.05, true, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d checks failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run emitted %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	for _, m := range perLayerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer %s missing", m.name)
		}
	}
	if _, err := os.Stat(filepath.Join("out", w.name+".trace.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
	fmt.Fprintln(os.Stderr) // keep the report lines apart from go test's own
}
