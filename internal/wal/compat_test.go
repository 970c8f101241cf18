package wal

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cuckoograph/internal/core"
)

// readCorpusSeed decodes one checked-in go-fuzz "v1" corpus file of
// FuzzReplaySegment: a single []byte value.
func readCorpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReplaySegment", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s: not a one-[]byte go-fuzz v1 file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestReplaysLogsOfEarlierBuilds pins the read side of the format's
// history with bytes earlier builds wrote: the checked-in corpus files
// below frame each lone op as a single-op record. Replay must deliver
// their ops; Open must drop a torn one and append one-op batch records
// after the old records; and the shipping path must read the mixed log
// exactly as replay does.
func TestReplaysLogsOfEarlierBuilds(t *testing.T) {
	ins, del := core.InsertOp, core.DeleteOp
	singles := core.Batch{ins(1, 2), del(1, 2), ins(1<<40, 9999)}
	for _, tc := range []struct {
		seed string
		want core.Batch
		torn int64
	}{
		{"healthy-singles", singles, 0},
		{"batch-then-op", core.Batch{ins(1, 2), ins(3, 4), del(1, 2), ins(7, 8)}, 0},
		{"torn-tail", singles, 5},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			dir := t.TempDir()
			hdr := segmentHeader(1)
			if err := os.WriteFile(segmentPath(dir, 1), append(hdr[:], readCorpusSeed(t, tc.seed)...), 0o644); err != nil {
				t.Fatal(err)
			}
			got, before := replayOps(t, dir)
			if !slices.Equal(got, tc.want) || before.TornBytes != tc.torn {
				t.Fatalf("replayed %v with %d torn bytes, want %v with %d", got, before.TornBytes, tc.want, tc.torn)
			}

			w := mustOpen(t, dir, Options{Sync: SyncNone})
			want := append(slices.Clone(tc.want), ins(11, 12), del(3, 4))
			for _, o := range want[len(tc.want):] {
				if err := w.LogBatch(core.Batch{{Kind: o.Kind, U: o.U, V: o.V}}); err != nil {
					t.Fatal(err)
				}
			}
			r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
			if err != nil {
				t.Fatal(err)
			}
			shipped := drainReader(t, r)
			r.Close()
			if !slices.Equal(core.Batch(shipped), want) {
				t.Fatalf("shipped %v, want %v", shipped, want)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, after := replayOps(t, dir)
			if !slices.Equal(got, want) || after.TornBytes != 0 {
				t.Fatalf("after reopen replayed %v with %d torn bytes, want %v and none", got, after.TornBytes, want)
			}
			if after.BatchRecords != before.BatchRecords+2 {
				t.Fatalf("BatchRecords %d → %d, want the two appends as batch records", before.BatchRecords, after.BatchRecords)
			}
		})
	}
}
