package redislike

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/wal"
)

// TestMetricsHandlesPreResolved pins the metrics hot path: joining the
// table gives each command its meter on the Command, so dispatch
// records through it — never a lookup by name — into the meter the
// /metrics scrape reads.
func TestMetricsHandlesPreResolved(t *testing.T) {
	s := NewServer()
	cmd := addCommand(s, "t.pre", func(ctx *Ctx) error { ctx.w.AppendSimple("OK"); return nil })
	if cmd.metrics == nil {
		t.Fatal("metrics handle not resolved when the command joined the table")
	}
	// Builtins get the same treatment.
	if s.cmds["ping"].metrics == nil {
		t.Fatal("builtin installed without a metrics handle")
	}
	if got := dispatch(s, "t.pre"); got.Str != "OK" {
		t.Fatalf("dispatch = %+v", got)
	}
	if got := cmd.metrics.calls.Load(); got != 1 {
		t.Fatalf("t.pre calls = %d, want 1", got)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "\ncg_commands_total{cmd=\"t.pre\"} 1\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("scrape lacks %q:\n%s", want, sb.String())
	}
}

// byteArgs renders a command line the way the wire parser hands it to
// serveRequest: one byte-slice view per token.
func byteArgs(tokens ...string) [][]byte {
	out := make([][]byte, len(tokens))
	for i, s := range tokens {
		out[i] = []byte(s)
	}
	return out
}

// TestCommandCycleAllocs pins the tentpole property: a warm
// dispatch-execute-encode cycle for the hot commands allocates nothing.
// This drives the exact serveRequest path the TCP loop runs (the read
// side's zero-alloc property is pinned in internal/resp), with a
// per-connection Ctx and Writer reused across commands.
func TestCommandCycleAllocs(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_ = gm

	var w resp.Writer
	ctx := &Ctx{w: &w}
	cases := []struct {
		name string
		args [][]byte
	}{
		{"g.insert", byteArgs("g.insert", "7", "9")},
		{"g.minsert", byteArgs("g.minsert", "7", "9", "8", "9")},
		{"g.query", byteArgs("g.query", "7", "9")},
		{"g.degree", byteArgs("g.degree", "7")},
		{"g.getneighbors", byteArgs("g.getneighbors", "7")},
		{"g.mdel", byteArgs("g.mdel", "100", "101")},
		{"ping", byteArgs("PING")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Prime scratch growth (name buffer, batch, ids) and any
			// first-touch structure growth in the engine.
			s.serveRequest(ctx, tc.args)
			w.Reset()
			allocs := testing.AllocsPerRun(200, func() {
				s.serveRequest(ctx, tc.args)
				w.Reset()
			})
			if allocs != 0 {
				t.Fatalf("%s cycle allocates %.1f/run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestPipelineDrainAllocsWithWAL extends the pin to the durable serving
// path: with a WAL attached, a warm drain of sixteen pipelined commands
// — g.insert / g.del toggles staged in the log, g.query and g.degree
// between them — followed by the drain's one commit (frame, CRC,
// write(2)) allocates nothing per command.
func TestPipelineDrainAllocsWithWAL(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}

	gm.Graph().InsertEdge(7, 1) // the toggles below never empty the node
	var drain [][][]byte
	var want []byte
	for i := 0; i < 4; i++ {
		v := strconv.Itoa(100 + i)
		drain = append(drain,
			byteArgs("g.insert", "7", v), byteArgs("g.query", "7", v),
			byteArgs("g.degree", "7"), byteArgs("g.del", "7", v))
		want = append(want, ":1\r\n:1\r\n:2\r\n:1\r\n"...)
	}
	var w resp.Writer
	ctx := &Ctx{w: &w}
	run := func() {
		for _, args := range drain {
			s.serveRequest(ctx, args)
		}
		s.commit(ctx)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("drain replies = %q, want %q", w.Bytes(), want)
		}
		w.Reset()
	}
	run()
	run() // both halves of the WAL's buffer swap have now grown
	before := gm.walPtr.Load().Stats()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("pipelined drain of %d commands allocates %.1f/run, want 0", len(drain), allocs)
	}
	after := gm.walPtr.Load().Stats()
	if drains, commits := uint64(101), after.GroupCommits-before.GroupCommits; commits != drains {
		t.Fatalf("%d group commits for %d drains, want one per drain", commits, drains)
	}
	if ops := after.Ops - before.Ops; ops != 101*8 {
		t.Fatalf("%d ops logged, want %d", ops, 101*8)
	}
}

// TestCommandCycleErrorReplies: the streaming path still renders the
// pinned taxonomy errors — rewinding any partial output first.
func TestCommandCycleErrorReplies(t *testing.T) {
	s := NewServer()
	_, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addCommand(s, "t.partial", func(ctx *Ctx) error {
		ctx.w.AppendArrayHeader(3)
		ctx.w.AppendInt(1)
		return badArg(ctx.Name, "gave up mid-array")
	})
	addCommand(s, "t.mute", func(ctx *Ctx) error { return nil })

	if got := dispatch(s, "g.insert", "1"); got.Str != "ERR wrong number of arguments for 'g.insert' command" {
		t.Fatalf("arity reply = %q", got.Str)
	}
	if got := dispatch(s, "nosuch"); got.Str != "ERR unknown command 'nosuch'" {
		t.Fatalf("unknown reply = %q", got.Str)
	}
	if got := dispatch(s, "g.insert", "x", "2"); got.Str != `ERR g.insert: bad node id "x"` {
		t.Fatalf("bad-arg reply = %q", got.Str)
	}
	// A handler error mid-reply rewinds: the wire sees one error value,
	// not a truncated array.
	got := dispatch(s, "t.partial")
	if got.Type != '-' || got.Str != "ERR t.partial: gave up mid-array" {
		t.Fatalf("partial-output reply = %+v", got)
	}
	// In the middle of a pipelined burst the rewind takes back the
	// failed command's bytes and nothing else: the replies either side
	// of it come off the wire whole and in order.
	p := servePipe(t, s)
	p.push("g.insert", "1", "2")
	p.push("t.partial")
	p.push("g.getneighbors", "1")
	p.flush()
	if got := p.read(); got.Type != ':' || got.Int != 1 {
		t.Fatalf("reply 1 of the burst = %+v, want :1", got)
	}
	if got := p.read(); got.Type != '-' || got.Str != "ERR t.partial: gave up mid-array" {
		t.Fatalf("reply 2 of the burst = %+v, want the handler's error alone", got)
	}
	if got := p.read(); got.Type != '*' || len(got.Array) != 1 || got.Array[0].Str != "2" {
		t.Fatalf("reply 3 of the burst = %+v, want [2]", got)
	}
	p.hangup()
	// A handler returning nil without writing is a server bug surfaced
	// as an error reply, keeping the pipeline in sync.
	if got := dispatch(s, "t.mute"); got.Type != '-' {
		t.Fatalf("mute handler reply = %+v, want error", got)
	}
}

// TestDispatchMetersDuration: dispatch feeds the latency histogram of
// the meter on the Command.
func TestDispatchMetersDuration(t *testing.T) {
	s := NewServer()
	dispatch(s, "ping")
	m := s.cmds["ping"].metrics
	if m.calls.Load() != 1 {
		t.Fatalf("ping calls = %d, want 1", m.calls.Load())
	}
	var bucketed uint64
	for i := range m.buckets {
		bucketed += m.buckets[i].Load()
	}
	if bucketed != 1 {
		t.Fatalf("histogram observations = %d, want 1", bucketed)
	}
	if m.sumNS.Load() == 0 && time.Since(s.metrics.start) > 0 {
		t.Fatal("latency sum not recorded")
	}
}

// TestConnScratchShrinks: a command whose per-connection scratch grew
// past retainedScratchBytes — a G.MINSERT of 10 000 pairs, a G.NODES
// of 10 000 ids, an unknown command with a 100 KB name — leaves none
// of it pinned on the connection, while the small scratch of an
// ordinary command stays for reuse.
func TestConnScratchShrinks(t *testing.T) {
	s := NewServer()
	_, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var w resp.Writer
	ctx := &Ctx{w: &w}
	serve := func(args [][]byte) {
		t.Helper()
		s.serveRequest(ctx, args)
		if bytes.HasPrefix(w.Bytes(), []byte("-")) && !bytes.Contains(w.Bytes(), []byte("unknown command")) {
			t.Fatalf("%s answered %q", args[0], w.Bytes()[:min(80, w.Len())])
		}
		w.Reset()
	}
	check := func(after string) {
		t.Helper()
		if b := cap(ctx.nameBuf); b > retainedScratchBytes {
			t.Fatalf("after %s the name buffer keeps %d bytes", after, b)
		}
		if b := cap(ctx.batch) * int(unsafe.Sizeof(core.Op{})); b > retainedScratchBytes {
			t.Fatalf("after %s the batch scratch keeps %d bytes", after, b)
		}
		if b := cap(ctx.ids) * 8; b > retainedScratchBytes {
			t.Fatalf("after %s the id scratch keeps %d bytes", after, b)
		}
	}

	minsert := []string{"g.minsert"}
	for u := 0; u < 10000; u++ {
		minsert = append(minsert, strconv.Itoa(u), "1")
	}
	serve(byteArgs(minsert...))
	check("a 10 000-pair G.MINSERT")
	serve(byteArgs("g.nodes"))
	check("a 10 000-node G.NODES")
	serve([][]byte{bytes.Repeat([]byte("x"), 100<<10)})
	check("a 100 KB unknown command name")

	serve(byteArgs("g.minsert", "1", "2", "3", "4"))
	serve(byteArgs("g.getneighbors", "1"))
	if cap(ctx.nameBuf) == 0 || cap(ctx.batch) == 0 || cap(ctx.ids) == 0 {
		t.Fatalf("small scratch not kept: name %d, batch %d, ids %d", cap(ctx.nameBuf), cap(ctx.batch), cap(ctx.ids))
	}
}

// TestFramesPushAllocs pins the follower's apply path: a warm frames
// push — its chunk decoded where it lies in the read buffer, its ops
// applied to one shard, its ack written — allocates nothing. This
// holds while a push fits the 64 KiB the read buffer keeps between
// commands; a larger one grows the buffer, as a client command that
// size does.
func TestFramesPushAllocs(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const fan = 2048
	start := w.TailPosition()
	b := make(core.Batch, 0, fan)
	for v := uint64(0); v < fan; v++ {
		b = b.Insert(7, v)
	}
	if err := w.LogBatch(b); err != nil {
		t.Fatal(err)
	}
	rd, err := w.OpenReader(start)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	chunk, pos, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) > 60<<10 {
		t.Fatalf("chunk of %d bytes: a push must fit 64 KiB", len(chunk))
	}

	// One push to warm, AllocsPerRun's warm-up run, and the measured ones:
	// the same chunk at consecutive positions.
	const runs = 100
	var stream resp.Writer
	for i := 0; i < runs+2; i++ {
		stream.AppendArrayHeader(4)
		stream.AppendBulkString(replKindFrames)
		stream.AppendBulkUint(pos.Seg)
		stream.AppendBulkUint(uint64(pos.Off) + uint64(i*len(chunk)))
		stream.AppendBulk(chunk)
	}
	gm, _ := NewGraphModule()
	r := &Replica{gm: gm, log: gm.log}
	r.posSeg.Store(pos.Seg)
	r.posOff.Store(uint64(pos.Off))
	rc := resp.NewConn(byteConn{src: bytes.NewReader(stream.Bytes())})
	var batch core.Batch
	push := func() {
		var err error
		if batch, _, err = r.applyPush(rc, batch[:0]); err != nil {
			t.Fatal(err)
		}
		if err := r.sendPos(rc, "g.replack"); err != nil {
			t.Fatal(err)
		}
	}
	push()
	if allocs := testing.AllocsPerRun(runs, push); allocs != 0 {
		t.Fatalf("a warm frames push of %d bytes allocates %.1f/run, want 0", len(chunk), allocs)
	}
	if got, edges := r.frames.Load(), gm.Graph().NumEdges(); got != runs+2 || edges != fan {
		t.Fatalf("%d pushes applied, %d edges; want %d and %d", got, edges, runs+2, fan)
	}
}
