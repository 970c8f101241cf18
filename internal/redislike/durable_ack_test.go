package redislike

import (
	"bufio"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
	"cuckoograph/internal/wal"
)

// The server-path durability contract: what a client has been told is
// in the log. Handlers only stage; the serve loop commits before every
// flush — so the set of mutations acknowledged to clients is always a
// subset of what recovery of the directory, as it is on disk at that
// moment, yields, and replies follow pipeline order.

// recoverCopy copies the WAL directory as it is right now — a crash
// image that keeps the page cache — and recovers the copy.
func recoverCopy(t *testing.T, dir string) *sharded.Graph {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // compacted away between the listing and the read
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, _, err := wal.Recover(dst, sharded.Config{Shards: 2})
	if err != nil {
		t.Fatalf("recover of the copied directory: %v", err)
	}
	return g
}

// ackOracle is the map-of-sets model the replies are checked against.
type ackOracle map[uint64]map[uint64]bool

func (o ackOracle) insert(u, v uint64) int64 {
	if o[u][v] {
		return 0
	}
	if o[u] == nil {
		o[u] = map[uint64]bool{}
	}
	o[u][v] = true
	return 1
}

func (o ackOracle) del(u, v uint64) int64 {
	if !o[u][v] {
		return 0
	}
	delete(o[u], v)
	return 1
}

func (o ackOracle) edges() int {
	n := 0
	for _, vs := range o {
		n += len(vs)
	}
	return n
}

// ackCmd is one generated command and the check its reply must pass.
type ackCmd struct {
	args  []string
	check func(v resp.Value) error
}

func wantInt(n int64) func(resp.Value) error {
	return func(v resp.Value) error {
		if v.Type != ':' || v.Int != n {
			return fmt.Errorf("want :%d, got %+v", n, v)
		}
		return nil
	}
}

// genAckCmd draws one command and runs it on the oracle, in pipeline
// order: a read sees the earlier writes of its own drain.
func genAckCmd(rng *rand.Rand, o ackOracle) ackCmd {
	node := func() uint64 { return uint64(rng.Intn(12)) }
	pairs := func(apply func(u, v uint64) int64) ([]string, int64) {
		var args []string
		var n int64
		for k := 2 + rng.Intn(3); k > 0; k-- {
			u, v := node(), node()
			args = append(args, strconv.FormatUint(u, 10), strconv.FormatUint(v, 10))
			n += apply(u, v)
		}
		return args, n
	}
	u, v := node(), node()
	us, vs := strconv.FormatUint(u, 10), strconv.FormatUint(v, 10)
	switch p := rng.Intn(100); {
	case p < 25:
		return ackCmd{[]string{"g.insert", us, vs}, wantInt(o.insert(u, v))}
	case p < 40:
		return ackCmd{[]string{"g.del", us, vs}, wantInt(o.del(u, v))}
	case p < 50:
		args, n := pairs(o.insert)
		return ackCmd{append([]string{"g.minsert"}, args...), wantInt(n)}
	case p < 58:
		args, n := pairs(o.del)
		return ackCmd{append([]string{"g.mdel"}, args...), wantInt(n)}
	case p < 80:
		n := int64(0)
		if o[u][v] {
			n = 1
		}
		return ackCmd{[]string{"g.query", us, vs}, wantInt(n)}
	case p < 92:
		return ackCmd{[]string{"g.degree", us}, wantInt(int64(len(o[u])))}
	default:
		var want []string
		for v := range o[u] {
			want = append(want, strconv.FormatUint(v, 10))
		}
		slices.Sort(want)
		return ackCmd{[]string{"g.getneighbors", us}, func(v resp.Value) error {
			var got []string
			for _, e := range v.Array {
				got = append(got, e.Str)
			}
			slices.Sort(got)
			if v.Type != '*' || !slices.Equal(got, want) {
				return fmt.Errorf("want neighbours %v, got %+v", want, v)
			}
			return nil
		}}
	}
}

// sameEdges reports how g differs from the oracle, "" when it doesn't.
func sameEdges(g *sharded.Graph, o ackOracle) string {
	if int(g.NumEdges()) != o.edges() {
		return fmt.Sprintf("recovered %d edges, acknowledged state has %d", g.NumEdges(), o.edges())
	}
	for u, vs := range o {
		for v := range vs {
			if !g.HasEdge(u, v) {
				return fmt.Sprintf("acknowledged edge %d>%d is not in the recovered copy", u, v)
			}
		}
	}
	return ""
}

// TestAckedIsDurableInPipelineOrder: a seeded random program at depths
// 1, 2, 16 and 64 under each sync policy. Every reply equals the oracle
// run in pipeline order, and each time the client has read a drain's
// replies, recovery of a copy of the directory holds exactly the state
// acknowledged so far (one connection, everything acknowledged: acked
// and staged coincide).
func TestAckedIsDurableInPipelineOrder(t *testing.T) {
	const drains = 24
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		for _, depth := range []int{1, 2, 16, 64} {
			t.Run(fmt.Sprintf("%s/d%d", policy, depth), func(t *testing.T) {
				_, gm, addr := startGraphServer(t, Config{})
				dir := t.TempDir()
				if err := gm.EnableWAL(dir, wal.Options{Sync: policy, SegmentBytes: 2 << 10}); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(depth)*31 + int64(policy)))
				o := ackOracle{}
				p := dialPipe(t, addr)
				for d := 0; d < drains; d++ {
					if d == drains/2 {
						// Recovery from here on is snapshot plus log tail.
						p.push("checkpoint")
						p.flush()
						if v := p.read(); v.Type != '$' {
							t.Fatalf("checkpoint: %+v", v)
						}
					}
					cmds := make([]ackCmd, depth)
					for i := range cmds {
						cmds[i] = genAckCmd(rng, o)
						p.push(cmds[i].args...)
					}
					p.flush()
					for i, c := range cmds {
						if err := c.check(p.read()); err != nil {
							t.Fatalf("drain %d, command %d %v: %v", d, i, c.args, err)
						}
					}
					if diff := sameEdges(recoverCopy(t, dir), o); diff != "" {
						t.Fatalf("after drain %d: %s", d, diff)
					}
				}
			})
		}
	}
}

// slowFS delays every segment write, holding open the window in which
// a mutation is applied, staged and visible but not yet in the file.
type slowFS struct{ vfs.FS }

type slowFile struct{ vfs.File }

func (s slowFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return slowFile{f}, nil
}

func (f slowFile) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return f.File.Write(p)
}

// TestObservedImpliesDurable: the guarantee reaches across connections.
// One connection inserts edges in pipelined bursts; another polls for
// them. The moment a g.query is answered :1, the edge — inserted,
// staged and possibly not yet committed by the OTHER connection when
// the read ran — must already be in the log: the reader's own drain
// joined the commit before its reply left. The device is slow, so most
// observations fall inside another connection's commit.
func TestObservedImpliesDurable(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			_, gm, addr := startGraphServer(t, Config{})
			dir := t.TempDir()
			if err := gm.EnableWAL(dir, wal.Options{Sync: policy, FS: slowFS{vfs.OS}}); err != nil {
				t.Fatal(err)
			}
			const edges, depth = 320, 16
			wc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer wc.Close()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				br, bw := bufio.NewReader(wc), bufio.NewWriter(wc)
				for lo := 0; lo < edges; lo += depth {
					for v := lo; v < lo+depth; v++ {
						resp.Write(bw, resp.Command("g.insert", "100", strconv.Itoa(v)))
					}
					if err := bw.Flush(); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					for v := lo; v < lo+depth; v++ {
						if r, err := resp.Read(br); err != nil || r.Type != ':' || r.Int != 1 {
							t.Errorf("writer: insert 100>%d = %+v, %v", v, r, err)
							return
						}
					}
				}
			}()
			r := dialPipe(t, addr)
			checked := 0
			for v := 0; v < edges && !t.Failed(); {
				r.push("g.query", "100", strconv.Itoa(v))
				r.flush()
				if got := r.read(); got.Type != ':' {
					t.Fatalf("reader: %+v", got)
				} else if got.Int == 0 {
					continue // not inserted yet; ask again
				}
				if v%8 == 0 {
					if !recoverCopy(t, dir).HasEdge(100, uint64(v)) {
						t.Fatalf("g.query answered :1 for 100>%d but the edge is not in the log", v)
					}
					checked++
				}
				v++
			}
			wg.Wait()
			if checked == 0 {
				t.Fatal("no observation was checked")
			}
		})
	}
}
