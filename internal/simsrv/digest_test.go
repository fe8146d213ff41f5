package simsrv

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sweb/internal/storage"
	"sweb/internal/workload"
)

// meikoLeg is one burst of the sim_meiko benchmark's shape: a corpus of
// equal-sized documents dealt round-robin over a 6-node Meiko under the
// SWEB policy, and one jittered burst against it.
type meikoLeg struct {
	name  string
	count int
	size  int64
	rps   int
}

var meikoLegs = []meikoLeg{
	{name: "small", count: 256, size: 1 << 10, rps: 96},
	{name: "large", count: 64, size: 3 << 19, rps: 16},
}

// build makes a fresh cluster and generates the leg's arrivals from seed.
func (l meikoLeg) build(t testing.TB, seed int64) (*Cluster, []workload.Arrival) {
	t.Helper()
	const nodes = 6
	st := storage.NewStore(nodes)
	paths := make([]string, l.count)
	for i := range paths {
		paths[i] = fmt.Sprintf("/docs/%s%04d.dat", l.name[:1], i)
		st.MustAdd(storage.File{Path: paths[i], Size: l.size, Owner: i % nodes})
	}
	burst := workload.Burst{RPS: l.rps, DurationSeconds: 60, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := MeikoConfig(nodes, st)
	cfg.Policy = PolicySWEB
	cfg.Seed = seed
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, arr
}

// TestMeikoDigestGolden pins the simulator bit for bit: for three seeds
// and both sim_meiko legs, the number of events fired, the request counts
// and the exact bits of the mean response must equal the golden. Any
// change to event ordering or to the processor-sharing arithmetic shows
// up here. Regenerate with -update-golden only for an intended change to
// what the simulator computes.
func TestMeikoDigestGolden(t *testing.T) {
	var lines []string
	for seed := int64(1); seed <= 3; seed++ {
		for i, l := range meikoLegs {
			cl, arr := l.build(t, seed+int64(i))
			rr := cl.RunSchedule(arr)
			lines = append(lines, fmt.Sprintf("seed=%d leg=%s events=%d offered=%d completed=%d dropped=%d mean_bits=%#016x",
				seed, l.name, cl.Sim.EventsFired(), rr.Offered, rr.Completed, rr.Dropped(), math.Float64bits(rr.Response.Mean())))
		}
	}
	checkGolden(t, "meiko_digest", lines)
	if t.Failed() {
		t.Logf("got:\n%s", strings.Join(lines, "\n"))
	}
}

// TestSimAllocsPerRequest pins the simulator's allocation budget: one
// seeded replication of both sim_meiko legs may allocate at most 40 times
// per offered request inside RunSchedule (events, their closures, the
// request state and its telemetry). Arrivals are fed, not scheduled, and
// the per-path heat series are read from the sketch, so neither costs an
// allocation per request.
func TestSimAllocsPerRequest(t *testing.T) {
	const budget = 40
	var mallocs uint64
	var offered int64
	for i, l := range meikoLegs {
		cl, arr := l.build(t, 1+int64(i))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rr := cl.RunSchedule(arr)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		offered += rr.Offered
		t.Logf("%s: %.1f allocations per request", l.name, float64(m1.Mallocs-m0.Mallocs)/float64(rr.Offered))
	}
	if per := float64(mallocs) / float64(offered); per > budget {
		t.Fatalf("%.1f allocations per offered request, budget %d", per, budget)
	}
}
