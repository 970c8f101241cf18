package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cuckoograph/internal/stores"
)

// capture runs one experiment with os.Stdout redirected to a file and
// returns what it printed.
func capture(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	run(name)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEveryPaperExperimentRuns drives each experiment of the paper grid
// at a tiny scale: its section header, a column line and at least one
// data row must come out, and the per-scheme figures must carry one
// column per evaluated scheme. The table must equal the list "all"
// iterates, so an experiment cannot join one and not the other.
func TestEveryPaperExperimentRuns(t *testing.T) {
	*scale, *seed = 8192, 42
	var schemes []string
	for _, f := range stores.Evaluated() {
		schemes = append(schemes, f.Name)
	}
	cases := []struct {
		name, header string
		perScheme    bool
	}{
		{"table2", "== Table II:", false},
		{"table3", "== Table III:", false},
		{"table4", "== Table IV:", false},
		{"fig2", "== Figure for parameter d ", false},
		{"fig3", "== Figure for parameter G ", false},
		{"fig4", "== Figure for parameter T ", false},
		{"fig5", "== Figure 5:", false},
		{"fig6", "== Figure 6: insert", true},
		{"fig7", "== Figure 7: query", true},
		{"fig8", "== Figure 8: delete", true},
		{"fig9", "== Figure 9:", true},
		{"fig10", "== Figure 10: BFS", true},
		{"fig11", "== Figure 11: SSSP", true},
		{"fig12", "== Figure 12: TC", true},
		{"fig13", "== Figure 13: CC", true},
		{"fig14", "== Figure 14: PR", true},
		{"fig15", "== Figure 15: BC", true},
		{"fig16", "== Figure 16: LCC", true},
		{"fig17", "== Figure 17:", false},
		{"fig18", "== Figure 18:", false},
		{"kicks", "== §IV-A:", false},
	}
	var names []string
	for _, c := range cases {
		names = append(names, c.name)
		t.Run(c.name, func(t *testing.T) {
			out := capture(t, c.name)
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
			if !strings.HasPrefix(lines[0], c.header) {
				t.Fatalf("first line %q, want prefix %q", lines[0], c.header)
			}
			// table is the column line then the data rows; fig9's
			// per-dataset "-- name --" separators are not part of it.
			var table [][]string
			for _, l := range lines[1:] {
				if !strings.HasPrefix(l, "--") {
					table = append(table, strings.Fields(l))
				}
			}
			if len(table) < 2 {
				t.Fatalf("no data row under the column line:\n%s", out)
			}
			if !c.perScheme {
				return
			}
			if got := table[0][1:]; !slices.Equal(got, schemes) {
				t.Fatalf("columns %v, want one per evaluated scheme %v", got, schemes)
			}
			if len(table[1]) != 1+len(schemes) {
				t.Fatalf("data row %v has %d cells, want %d", table[1], len(table[1]), 1+len(schemes))
			}
		})
	}
	if !slices.Equal(names, experiments) {
		t.Fatalf("tested %v\n\"all\" runs %v", names, experiments)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCountTablesAreGolden compares what table2, table3 and kicks print —
// counts, never timings, so the same bytes on every run — with the files
// under testdata/. The scale is one at which NotreDame's S-CHT chains
// kick and merge, so a change that moves a single cell of the L-CHT or
// an S-CHT shows as a diff here. A change that means to move cells
// rewrites the files with -update and says why.
func TestCountTablesAreGolden(t *testing.T) {
	*scale, *seed = 128, 42
	for _, name := range []string{"table2", "table3", "kicks"} {
		t.Run(name, func(t *testing.T) {
			got := capture(t, name)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s printed:\n%s\nwant (%s):\n%s", name, got, path, want)
			}
		})
	}
}
