// Command cgbench regenerates every table and figure of the paper's
// evaluation (§V). Each subcommand prints the rows or series of one
// experiment; "all" runs the whole suite. Datasets are synthesised at a
// configurable scale (the dataset package comment gives the substitution
// rationale).
//
// Usage:
//
//	cgbench [-scale N] [-seed N] <experiment>
//
// Experiments: table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 kicks all
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"cuckoograph/internal/bench"
	"cuckoograph/internal/core"
	"cuckoograph/internal/cuckoo"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/neolike"
	"cuckoograph/internal/redislike"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/stores"
)

var (
	scale = flag.Uint64("scale", 64, "dataset scale divisor (1 = paper size)")
	seed  = flag.Uint64("seed", 42, "workload seed")
)

// experiments lists what "all" runs, in paper order.
var experiments = []string{"table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5",
	"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16", "fig17", "fig18", "kicks"}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cgbench [-scale N] [-seed N] <table2..table4|fig2..fig18|kicks|all>")
		os.Exit(2)
	}
	run(flag.Arg(0))
}

func run(name string) {
	switch name {
	case "table2":
		table2()
	case "table3":
		table3()
	case "table4":
		table4()
	case "fig2":
		sweep("d", []string{"4", "8", "16", "32"}, func(v string) core.Config {
			d, _ := strconv.Atoi(v)
			return core.Config{D: d}
		})
	case "fig3":
		sweep("G", []string{"0.8", "0.85", "0.9", "0.95"}, func(v string) core.Config {
			g, _ := strconv.ParseFloat(v, 64)
			return core.Config{G: g}
		})
	case "fig4":
		sweep("T", []string{"50", "150", "250", "350"}, func(v string) core.Config {
			t, _ := strconv.Atoi(v)
			return core.Config{MaxKicks: t}
		})
	case "fig5":
		fig5()
	case "fig6", "fig7", "fig8":
		basicOps(name)
	case "fig9":
		fig9()
	case "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16":
		analyticsFig(name)
	case "fig17":
		fig17()
	case "fig18":
		fig18()
	case "kicks":
		kicks()
	case "all":
		for _, n := range experiments {
			run(n)
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "cgbench: unknown experiment %q\n", name)
		os.Exit(2)
	}
}

func stream(name string) []dataset.Edge {
	spec, ok := dataset.ByName(name)
	if !ok {
		panic("no dataset " + name)
	}
	return dataset.Generate(spec, *scale, *seed)
}

// table2 prints the transformation rule walk of Table II by driving a
// chain through nine Grow steps.
func table2() {
	fmt.Println("== Table II: transformation rule (R=3, n=8) ==")
	c := cuckoo.NewChain[struct{}](8, cuckoo.Config{R: 3})
	rows := [][]string{}
	for state := 0; state <= 9; state++ {
		lens := c.Lengths()
		cells := []string{fmt.Sprintf("%d", state)}
		for i := 0; i < 3; i++ {
			switch {
			case i >= len(lens):
				cells = append(cells, "null")
			case lens[i] == 4: // n/2 for n=8
				cells = append(cells, "n/2")
			case lens[i] == 8:
				cells = append(cells, "n")
			default:
				cells = append(cells, fmt.Sprintf("%dn", lens[i]/8))
			}
		}
		rows = append(rows, cells)
		c.Grow()
	}
	bench.PrintTable(os.Stdout,
		[]string{"# LR>G", "1st S-CHT", "2nd S-CHT", "3rd S-CHT"}, rows)
}

// table3 empirically grounds Table III's CuckooGraph row: amortized O(1)
// insert cost (Theorem 2's ≤ 2.25N expectation) and O(1) query probes.
func table3() {
	fmt.Printf("== Table III: amortized complexity check (scale 1/%d) ==\n", *scale)
	g := core.NewGraph(core.Config{LCHTBase: 4, SCHTBase: 4})
	bench.LoadStream(g, stream("NotreDame"))
	s := g.Stats()
	n := float64(s.Edges)
	lcht := float64(s.LCHTPlacements + s.LCHTKicks)
	scht := float64(s.SCHTPlacements + s.SCHTKicks)
	bench.PrintTable(os.Stdout,
		[]string{"metric", "measured", "theorem bound"},
		[][]string{
			{"edges inserted N", fmt.Sprintf("%.0f", n), "-"},
			{"L-CHT cost (placements+kicks)", fmt.Sprintf("%.0f (%.3fN)", lcht, lcht/float64(s.Nodes)), "≤ 2.25N exp., 3N worst"},
			{"S-CHT cost (placements+kicks)", fmt.Sprintf("%.0f (%.3fN)", scht, scht/n), "≤ 2.25N exp., 3N worst"},
			{"space cells / edges", fmt.Sprintf("%.3f", float64(s.LCHTCells+s.ChainCells)/n), "O(|E|), ≤ 1/Λ at stable state"},
		})
}

func table4() {
	fmt.Printf("== Table IV: dataset shapes (scale 1/%d) ==\n", *scale)
	rows := [][]string{}
	for _, spec := range dataset.Specs() {
		st := dataset.Measure(spec.Name, spec.Weighted, dataset.Generate(spec, *scale, *seed))
		w := "no"
		if st.Weighted {
			w = "yes"
		}
		rows = append(rows, []string{
			st.Name, w,
			fmt.Sprintf("%d", st.Nodes), fmt.Sprintf("%d", st.Edges),
			fmt.Sprintf("%d", st.Dedup), fmt.Sprintf("%.2f", st.AvgDeg),
			fmt.Sprintf("%d", st.MaxDeg), fmt.Sprintf("%.2e", st.Density),
		})
	}
	bench.PrintTable(os.Stdout,
		[]string{"Dataset", "Wtd", "Nodes", "Edges", "Edges(dedup)", "AvgDeg", "MaxDeg", "Density"},
		rows)
}

// sweep runs the Figures 2-4 parameter studies on the CAIDA stream.
func sweep(param string, values []string, configure func(string) core.Config) {
	fmt.Printf("== Figure for parameter %s (CAIDA, scale 1/%d) ==\n", param, *scale)
	st := stream("CAIDA")
	points := bench.SweepParam(values, configure, st)
	rows := [][]string{}
	for _, p := range points {
		rows = append(rows, []string{
			param + "=" + p.Param,
			fmt.Sprintf("%.2f", p.InsertMops),
			fmt.Sprintf("%.2f", p.QueryMops),
			fmt.Sprintf("%.2f", p.MemoryMB),
		})
	}
	bench.PrintTable(os.Stdout, []string{"param", "insert Mops", "query Mops", "memory MB"}, rows)
}

// fig5 is the DENYLIST ablation (§V-C).
func fig5() {
	fmt.Printf("== Figure 5: DenyList ablation (CAIDA, scale 1/%d) ==\n", *scale)
	st := stream("CAIDA")
	rows := [][]string{}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"Ours (DL)", false}, {"Ours (DL-free)", true}} {
		cfg := core.Config{DisableDenylist: mode.disable}
		ins, qry, mem := bench.InsertQueryThroughput(func() graphstore.Store {
			return stores.NewCuckooGraphWith(cfg)
		}, st)
		rows = append(rows, []string{mode.name,
			fmt.Sprintf("%.2f", ins), fmt.Sprintf("%.2f", qry), fmt.Sprintf("%.3f", mem)})
	}
	bench.PrintTable(os.Stdout, []string{"variant", "insert Mops", "query Mops", "memory MB"}, rows)
}

// basicOps is Figures 6-8: per-dataset insert/query/delete throughput.
func basicOps(fig string) {
	metric := map[string]string{"fig6": "insert", "fig7": "query", "fig8": "delete"}[fig]
	fmt.Printf("== Figure %s: %s throughput, Mops (scale 1/%d) ==\n", fig[3:], metric, *scale)
	header := []string{"Dataset"}
	for _, f := range stores.Evaluated() {
		header = append(header, f.Name)
	}
	rows := [][]string{}
	for _, spec := range dataset.Specs() {
		st := dataset.Generate(spec, *scale, *seed)
		row := []string{spec.Name}
		for _, f := range stores.Evaluated() {
			res, _ := bench.BasicOps(f, st, 0)
			var v float64
			switch metric {
			case "insert":
				v = res.InsertMops
			case "query":
				v = res.QueryMops
			default:
				v = res.DeleteMops
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	bench.PrintTable(os.Stdout, header, rows)
}

// fig9 prints the memory curves per dataset.
func fig9() {
	fmt.Printf("== Figure 9: memory usage in MB after deduped inserts (scale 1/%d) ==\n", *scale)
	for _, spec := range dataset.Specs() {
		st := dataset.Generate(spec, *scale, *seed)
		fmt.Printf("-- %s --\n", spec.Name)
		header := []string{"inserted"}
		curves := map[string][]bench.MemPoint{}
		for _, f := range stores.Evaluated() {
			header = append(header, f.Name)
			_, curve := bench.BasicOps(f, st, 10)
			curves[f.Name] = curve
		}
		n := len(curves[stores.Evaluated()[0].Name])
		rows := [][]string{}
		for i := 0; i < n; i++ {
			row := []string{fmt.Sprintf("%d", curves[stores.Evaluated()[0].Name][i].Inserted)}
			for _, f := range stores.Evaluated() {
				c := curves[f.Name]
				if i < len(c) {
					row = append(row, fmt.Sprintf("%.3f", float64(c[i].Bytes)/(1<<20)))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
		bench.PrintTable(os.Stdout, header, rows)
	}
}

// analyticsFig is Figures 10-16.
func analyticsFig(fig string) {
	taskByFig := map[string]bench.AnalyticsTask{
		"fig10": bench.TaskBFS, "fig11": bench.TaskSSSP, "fig12": bench.TaskTC,
		"fig13": bench.TaskCC, "fig14": bench.TaskPR, "fig15": bench.TaskBC,
		"fig16": bench.TaskLCC,
	}
	task := taskByFig[fig]
	fmt.Printf("== Figure %s: %s running time, seconds (scale 1/%d) ==\n", fig[3:], task, *scale)
	header := []string{"Dataset"}
	for _, f := range stores.Evaluated() {
		header = append(header, f.Name)
	}
	// Subgraph size per the §V-E methodology, kept modest at bench scale.
	sub := 256
	rows := [][]string{}
	for _, spec := range dataset.Specs() {
		st := dataset.Generate(spec, *scale, *seed)
		row := []string{spec.Name}
		for _, f := range stores.Evaluated() {
			d := bench.RunAnalytics(f, st, task, sub)
			row = append(row, fmt.Sprintf("%.4g", d.Seconds()))
		}
		rows = append(rows, row)
	}
	bench.PrintTable(os.Stdout, header, rows)
}

// fig17 measures CuckooGraph-on-redislike throughput over real TCP.
func fig17() {
	fmt.Printf("== Figure 17: CuckooGraph on Redis-like server, Mops (scale 1/%d) ==\n", *scale)
	rows := [][]string{}
	for _, name := range []string{"CAIDA", "StackOverflow"} {
		st := stream(name)
		if len(st) > 200_000 {
			st = st[:200_000] // socket round-trips dominate; cap the stream
		}
		srv := redislike.NewServer()
		_, mod := redislike.NewGraphModule()
		if err := srv.LoadModule(mod); err != nil {
			panic(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			panic(err)
		}
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		do := func(args ...string) {
			if err := resp.Write(w, resp.Command(args...)); err != nil {
				panic(err)
			}
			w.Flush()
			if _, err := resp.Read(r); err != nil {
				panic(err)
			}
		}
		measure := func(cmd string) float64 {
			start := time.Now()
			for _, e := range st {
				do(cmd, strconv.FormatUint(e.U, 10), strconv.FormatUint(e.V, 10))
			}
			return bench.Mops(len(st), time.Since(start))
		}
		ins := measure("g.insert")
		qry := measure("g.query")
		del := measure("g.del")
		rows = append(rows, []string{name,
			fmt.Sprintf("%.4f", ins), fmt.Sprintf("%.4f", qry), fmt.Sprintf("%.4f", del)})
		conn.Close()
		srv.Close()
	}
	bench.PrintTable(os.Stdout, []string{"Dataset", "insert", "query", "delete"}, rows)
}

// fig18 compares the Neo4j-like engine with and without the CuckooGraph
// edge index on the first 1M (scaled) CAIDA edges.
func fig18() {
	fmt.Printf("== Figure 18: Neo4j-like engine ± CuckooGraph index (scale 1/%d) ==\n", *scale)
	st := stream("CAIDA")
	limit := 1_000_000 / int(*scale)
	if limit < 1000 {
		limit = 1000
	}
	if len(st) > limit {
		st = st[:limit]
	}
	dedup := dataset.Dedup(st)
	rows := [][]string{}
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"Ours+Neo4j", true}, {"Neo4j", false}} {
		db := neolike.New()
		if mode.indexed {
			db = neolike.WithIndex()
		}
		start := time.Now()
		for _, e := range st {
			db.CreateRelationship(e.U, e.V, "FLOW")
		}
		insert := time.Since(start)
		start = time.Now()
		for _, e := range dedup {
			db.Relationships(e.U, e.V)
		}
		query := time.Since(start)
		rows = append(rows, []string{mode.name,
			fmt.Sprintf("%.4f", insert.Seconds()), fmt.Sprintf("%.4f", query.Seconds())})
	}
	bench.PrintTable(os.Stdout, []string{"variant", "insert s", "query s"}, rows)
}

// kicks reproduces the §IV-A measurement: average insertions per item.
func kicks() {
	fmt.Printf("== §IV-A: average insertions per item (NotreDame, scale 1/%d) ==\n", *scale)
	g := core.NewGraph(core.Config{LCHTBase: 4, SCHTBase: 4}) // grow from minimum length
	bench.LoadStream(g, stream("NotreDame"))
	s := g.Stats()
	lcht := 1 + float64(s.LCHTKicks)/float64(s.Nodes)
	scht := 1.0
	if s.SCHTPlacements > 0 {
		scht = 1 + float64(s.SCHTKicks)/float64(s.SCHTPlacements)
	}
	bench.PrintTable(os.Stdout, []string{"table", "avg insertions/item", "paper"},
		[][]string{
			{"L-CHT", fmt.Sprintf("%.4f", lcht), "≈1.017"},
			{"S-CHT", fmt.Sprintf("%.4f", scht), "≈1.006"},
		})
}
