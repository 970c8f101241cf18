package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/stores"
)

func smallStream() []dataset.Edge {
	spec, _ := dataset.ByName("CAIDA")
	return dataset.Generate(spec, 2048, 7)
}

func TestMops(t *testing.T) {
	if got := Mops(2_000_000, time.Second); got != 2 {
		t.Fatalf("Mops = %f, want 2", got)
	}
	if Mops(100, 0) != 0 {
		t.Fatal("Mops with zero duration should be 0")
	}
}

func TestBasicOpsProducesSaneResults(t *testing.T) {
	st := smallStream()
	for _, f := range stores.Evaluated() {
		res, curve := BasicOps(f, st, 5)
		if res.InsertMops <= 0 || res.QueryMops <= 0 || res.DeleteMops <= 0 {
			t.Fatalf("%s: non-positive throughput %+v", f.Name, res)
		}
		if len(curve) == 0 {
			t.Fatalf("%s: empty memory curve", f.Name)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].Inserted <= curve[i-1].Inserted {
				t.Fatalf("%s: curve not increasing in inserts", f.Name)
			}
		}
		last := curve[len(curve)-1]
		if last.Inserted != len(dataset.Dedup(st)) {
			t.Fatalf("%s: final curve point at %d inserts, want %d",
				f.Name, last.Inserted, len(dataset.Dedup(st)))
		}
	}
}

func TestSweepParam(t *testing.T) {
	st := smallStream()
	points := SweepParam([]string{"4", "8"}, func(v string) core.Config {
		if v == "4" {
			return core.Config{D: 4}
		}
		return core.Config{D: 8}
	}, st)
	if len(points) != 2 || points[0].Param != "4" || points[1].Param != "8" {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.InsertMops <= 0 || p.MemoryMB <= 0 {
			t.Fatalf("bad sweep point %+v", p)
		}
	}
}

func TestRunAnalyticsAllTasks(t *testing.T) {
	st := smallStream()
	f := graphstore.Factory{Name: "CuckooGraph", New: stores.NewCuckooGraph}
	// The seven tasks of §V-E in paper order (Figures 10-16).
	for _, task := range []AnalyticsTask{TaskBFS, TaskSSSP, TaskTC, TaskCC, TaskPR, TaskBC, TaskLCC} {
		d := RunAnalytics(f, st, task, 32)
		if d < 0 {
			t.Fatalf("task %s: negative duration", task)
		}
	}
}

func TestPrintTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	PrintTable(&buf, []string{"a", "long-header"}, [][]string{
		{"xxxxxx", "1"},
		{"y", "2"},
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("columns not aligned:\n%s", buf.String())
	}

	// A row wider than its header prints the extra cells unpadded.
	buf.Reset()
	PrintTable(&buf, []string{"a"}, [][]string{{"x", "extra", "more"}})
	if got, want := buf.String(), "a  \nx  extra  more  \n"; got != want {
		t.Fatalf("wide row printed %q, want %q", got, want)
	}
}

// TestLoadStreamEquivalence: the batched loader must build the same
// graph as the per-edge fallback, for stores with and without a native
// batch path.
func TestLoadStreamEquivalence(t *testing.T) {
	st := smallStream()
	for _, f := range []graphstore.Factory{
		{Name: "CuckooGraph", New: stores.NewCuckooGraph},                // ApplyBatch
		{Name: "CuckooGraph-Sharded", New: stores.NewShardedCuckooGraph}, // ApplyBatch
		stores.Evaluated()[0], // LiveGraph has no batch path: exercises the fallback
	} {
		batched := f.New()
		LoadStream(batched, st)
		perEdge := f.New()
		for _, e := range st {
			perEdge.InsertEdge(e.U, e.V)
		}
		if batched.NumEdges() != perEdge.NumEdges() {
			t.Fatalf("%s: LoadStream built %d edges, per-edge loop %d",
				f.Name, batched.NumEdges(), perEdge.NumEdges())
		}
		for _, e := range st[:min(len(st), 200)] {
			if !batched.HasEdge(e.U, e.V) {
				t.Fatalf("%s: LoadStream lost edge (%d,%d)", f.Name, e.U, e.V)
			}
		}
	}
}
