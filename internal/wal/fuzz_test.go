package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"cuckoograph/internal/core"
)

// corpusSeeds are the checked-in fuzz seeds for the segment scanner:
// record streams a healthy log produces, plus the damage shapes the
// tear/corruption classifier has to tell apart. Each value is the
// segment body — everything after the 13-byte header, which the fuzz
// target prepends. The corpus directory also keeps the seeds earlier
// builds wrote with single-op records (healthy-singles, batch-then-op,
// crc-tail, crc-midway, torn-tail); no seed here takes one of those
// names, so regenerating never overwrites an old-format file.
func corpusSeeds() map[string][]byte {
	lone := func(kind core.OpKind, u, v uint64) []byte {
		return encodeBatchFrame(nil, core.Batch{{Kind: kind, U: u, V: v}})
	}
	healthy := append(lone(core.OpInsert, 1, 2), lone(core.OpDelete, 1, 2)...)
	healthy = append(healthy, lone(core.OpInsert, 1<<40, 9999)...)
	mixed := append(encodeBatchFrame(nil, core.Batch{}.Insert(1, 2).Insert(3, 4).Delete(1, 2)), lone(core.OpInsert, 7, 8)...)
	bad := lone(core.OpInsert, 5, 6)
	bad[len(bad)-1] ^= 0xFF // CRC broken on the final (tearable) record
	midway := append(append([]byte{}, bad...), lone(core.OpInsert, 9, 10)...)
	torn := lone(core.OpInsert, 11, 12)
	torn = append(healthy, torn[:len(torn)-3]...) // record cut mid-write
	return map[string][]byte{
		"healthy-batches":    healthy,
		"batch-then-lone-op": mixed,
		"batch-crc-tail":     bad,
		"batch-crc-midway":   midway, // damage before intact data: corruption, not a tear
		"batch-torn-tail":    torn,
		"zero-length":        {0x00},
		"huge-length":        binary.AppendUvarint(nil, 1<<40),
		"empty":              {},
	}
}

// FuzzReplaySegment throws arbitrary bytes at the WAL record framing —
// the path that parses whatever a crash left on disk. Properties: the
// scanner never panics, every failure surfaces as core.ErrCorrupt (not
// a raw parse error), on success the delivered op count matches the
// stats — replay never silently drops or double-delivers an op — and
// the shipping decoder reads the intact prefix as exactly the ops
// replay delivered: one parser, whichever path reads the log.
func FuzzReplaySegment(f *testing.F) {
	for _, seed := range corpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		hdr := segmentHeader(1)
		if err := os.WriteFile(segmentPath(dir, 1), append(hdr[:], body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var delivered []core.Op
		stats, err := Replay(dir, 0, func(o core.Op) error {
			if o.Kind != core.OpInsert && o.Kind != core.OpDelete {
				t.Fatalf("replay delivered unknown op %d", o.Kind)
			}
			delivered = append(delivered, o)
			return nil
		})
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("replay failed with a non-corrupt error: %v", err)
			}
			return
		}
		if uint64(len(delivered)) != stats.Records {
			t.Fatalf("delivered %d ops but stats claim %d", len(delivered), stats.Records)
		}
		if stats.Segments != 1 {
			t.Fatalf("scanned %d segments, want 1", stats.Segments)
		}
		if stats.TornBytes < 0 || stats.TornBytes > int64(len(body)) {
			t.Fatalf("implausible torn byte count %d for %d-byte body", stats.TornBytes, len(body))
		}
		shipped, err := AppendChunkOps(body[:len(body)-int(stats.TornBytes)], nil)
		if err != nil {
			t.Fatalf("replay accepted the intact prefix, shipping rejects it: %v", err)
		}
		if !slices.Equal(shipped, delivered) {
			t.Fatalf("shipping decoded %v, replay delivered %v", shipped, delivered)
		}
	})
}

// TestGenerateFuzzCorpus (re)writes the checked-in seed corpus under
// testdata/fuzz in the native go-fuzz corpus encoding. It is a
// generator, not a test: run
//
//	CGFUZZ_GEN=1 go test ./internal/wal/ -run TestGenerateFuzzCorpus
//
// after changing corpusSeeds and commit the result.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("CGFUZZ_GEN") == "" {
		t.Skip("set CGFUZZ_GEN=1 to regenerate the checked-in corpus")
	}
	writeCorpus(t, filepath.Join("testdata", "fuzz", "FuzzReplaySegment"), corpusSeeds())
}

// writeCorpus emits one go-fuzz "v1" corpus file per seed.
func writeCorpus(t *testing.T, dir string, seeds map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
