package live

import (
	"math/rand"
	"sync"
	"time"
)

// Burst is the paper's burst test ("at each second a constant number of
// requests are launched"): at the top of each of seconds seconds it
// launches rps concurrent fetches, fetch(i) performing the i-th, and it
// returns once every one has finished, with their results in launch order
// — nil where a fetch failed outright.
func Burst(rps, seconds int, fetch func(i int) (*Result, error)) []*Result {
	out := make([]*Result, rps*seconds)
	var wg sync.WaitGroup
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for sec := 0; sec < seconds; sec++ {
		for k := 0; k < rps; k++ {
			i := sec*rps + k
			wg.Add(1)
			go func() {
				defer wg.Done()
				if res, err := fetch(i); err == nil {
					out[i] = res
				}
			}()
		}
		if sec < seconds-1 {
			<-ticker.C
		}
	}
	wg.Wait()
	return out
}

// Generate runs a Burst against the cluster through one client's rotation
// and failover, drawing the i-th request's path with pick.
func (c *Cluster) Generate(rps, seconds int, pick func(i int, rng *rand.Rand) string, seed int64) []*Result {
	client := c.NewClient()
	defer client.Close()
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, rps*seconds)
	for i := range paths {
		paths[i] = pick(i, rng)
	}
	return Burst(rps, seconds, func(i int) (*Result, error) { return client.Get(paths[i]) })
}
