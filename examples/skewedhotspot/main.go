// Skewed hotspot: the paper's Section 4.2 pathology. Every client hammers
// the same 1.5 MB file owned by node 0 — under pure file locality the
// "parallel" system collapses onto a single server (the paper measured
// 81.4 s vs round robin's 3.7 s). SWEB must notice the owner melting and
// serve the hot document from the other nodes' caches instead.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"sweb"
)

func main() {
	const (
		nodes = 6
		rps   = 8
		dur   = 45 // the paper's skew-test duration
	)
	fmt.Println("Skewed test: 6 servers, 8 rps for 45 s, every request for the")
	fmt.Println("same 1.5 MB file on node 0 (paper: RR 3.7s, FL 81.4s).")
	fmt.Println()
	fmt.Printf("%-14s %10s %10s %8s %10s %s\n", "policy", "mean", "max", "drops", "redirects", "served-per-node")

	for _, policy := range []string{sweb.PolicyRoundRobin, sweb.PolicyFileLocality, sweb.PolicySWEB} {
		st := sweb.NewStore(nodes)
		hot := sweb.SkewedSet(st, 1536<<10)

		cfg := sweb.MeikoSim(nodes, st)
		cfg.Policy = policy
		cfg.Seed = 5
		cl, err := sweb.NewSimCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		burst := sweb.Burst{RPS: rps, DurationSeconds: dur, Jitter: true}
		arrivals, err := burst.Generate(sweb.SinglePicker(hot), nil, rand.New(rand.NewSource(23)))
		if err != nil {
			log.Fatal(err)
		}
		res := cl.RunSchedule(arrivals)

		perNode := ""
		for i, n := range res.PerNodeServed {
			perNode += fmt.Sprintf("n%d=%d ", i, n)
		}
		fmt.Printf("%-14s %9.2fs %9.2fs %7.1f%% %10d %s\n",
			cl.PolicyName(), res.MeanResponse(), res.Response.Max(),
			res.DropRate()*100, res.Redirects, perNode)
	}
	fmt.Println()
	fmt.Println("File locality funnels everything to node 0; round robin and SWEB")
	fmt.Println("spread the load — after one fetch each node serves the hot file")
	fmt.Println("from its own page cache.")

	liveHeat()
}

// liveHeat replays the hotspot on a real 4-node cluster and renders the
// document-heat panel and placement advisor, merged from every node's
// /sweb/heat.
func liveHeat() {
	fmt.Println()
	fmt.Println("Live replay: the same hotspot on a 4-node live cluster. The heat")
	fmt.Println("sketch names the culprit; the advisor prices an extra replica:")
	fmt.Println()

	dir, err := os.MkdirTemp("", "sweb-hotspot")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st := sweb.NewStore(4)
	bg := sweb.UniformSet(st, 8, 8<<10)
	hot := sweb.SkewedSet(st, 64<<10)
	cl, err := sweb.StartLive(sweb.LiveOptions{
		Nodes: 4, Store: st, BaseDir: dir, Policy: sweb.PolicySWEB, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	client := cl.NewClient()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		p := hot
		if rng.Float64() > 0.8 {
			p = bg[rng.Intn(len(bg))]
		}
		if _, err := client.Get(p); err != nil {
			log.Fatal(err)
		}
	}

	m := cl.MergedHeat()
	fmt.Println(sweb.RenderHeat("hottest documents, cluster-wide", m, 6))
	fmt.Println()
	fmt.Println(sweb.RenderHeatAdvice("placement advisor (report-only)", sweb.AdviseHeat(m), 4))
}
