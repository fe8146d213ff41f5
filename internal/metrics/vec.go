package metrics

import "sync"

// Vec is a handle on one family's instances, resolved once at start-up so
// the request path never builds a Labels map, sorts it, or renders a
// signature to find a series it found on the previous request: With is a
// read-locked map hit on the raw label value (K is string for a one-label
// family, [2]string for a two-label one). Neither the family nor any
// series is registered until a key is first used, so a family that never
// fires stays out of the exposition exactly as it does when every call
// goes through Registry.Counter.
type Vec[K comparable, M metric] struct {
	reg             *Registry
	name, help, typ string
	labels          func(K) Labels // a key's label set; called on first use only
	mk              func() metric
	mu              sync.RWMutex
	byKey           map[K]M
}

// The instantiations the registry hands out.
type (
	CounterVec   = Vec[string, *Counter]
	HistogramVec = Vec[string, *Histogram]
	// CounterVec2 is keyed by the values of two labels, in the order the
	// label names were given to Registry.CounterVec2.
	CounterVec2 = Vec[[2]string, *Counter]
)

// With returns the instance for key, creating it on first use.
func (v *Vec[K, M]) With(key K) M {
	v.mu.RLock()
	m, ok := v.byKey[key]
	v.mu.RUnlock()
	if ok {
		return m
	}
	// First use: register through the family, which dedups by signature, so
	// a series also reached through Registry.Counter with the equivalent
	// Labels is the same instance.
	m = v.reg.family(v.name, v.help, v.typ).get(signature(v.labels(key)), v.mk).(M)
	v.mu.Lock()
	v.byKey[key] = m
	v.mu.Unlock()
	return m
}

func newVec[K comparable, M metric](r *Registry, name, help, typ string, labels func(K) Labels, mk func() metric) *Vec[K, M] {
	return &Vec[K, M]{reg: r, name: name, help: help, typ: typ, labels: labels, mk: mk, byKey: make(map[K]M)}
}

func oneLabel(label string) func(string) Labels {
	return func(v string) Labels { return Labels{label: v} }
}

func newCounter() metric { return new(Counter) }

// CounterVec returns a handle on the counter family name keyed by label.
// Nothing is registered until With is first called.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return newVec[string, *Counter](r, name, help, "counter", oneLabel(label), newCounter)
}

// CounterVec2 returns a handle on the counter family name keyed by the
// values of labelA and labelB.
func (r *Registry) CounterVec2(name, help, labelA, labelB string) *CounterVec2 {
	return newVec[[2]string, *Counter](r, name, help, "counter",
		func(v [2]string) Labels { return Labels{labelA: v[0], labelB: v[1]} }, newCounter)
}

// HistogramVec returns a handle on the histogram family name keyed by
// label, with the given bucket upper bounds (nil for DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return newVec[string, *Histogram](r, name, help, "histogram", oneLabel(label),
		func() metric { return newHistogram(buckets) })
}
