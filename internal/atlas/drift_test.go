package atlas

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"surw/internal/stats"
)

// mix64 is SplitMix64's finalizer: these tests use it to spread small
// integers into class fingerprints that look like hashes.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// batchTest is the test as it was computed before Drift kept a running sum
// of squares: the counts copied out of the map and summed term by term. It
// is the reference the streaming form is held to.
func batchTest(counts map[uint64]int) DriftSnapshot {
	cs := stats.CountsOfMap(counts)
	n := 0
	for _, c := range cs {
		n += c
	}
	k := len(cs)
	s := DriftSnapshot{Samples: n, Classes: k, P: 1}
	if k < 2 {
		return s
	}
	s.ChiSquare = stats.ChiSquareUniform(cs, k)
	s.P = stats.ChiSquareSF(s.ChiSquare, k-1)
	s.Alarm = n >= driftMinSamples && n >= 3*k && s.P < DriftAlarmP
	return s
}

// TestDriftStreamingMatchesBatch: at every checkpoint of every stream the
// streaming tracker reports exactly what DriftFromCounts derives from the
// counts so far, agrees with the term-by-term chi-square to rounding, and
// has latched its alarm at exactly the checkpoint the batch test first
// rejects at.
func TestDriftStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	zipf := rand.NewZipf(rng, 1.3, 4, 199)
	streams := []struct {
		name   string
		n      int
		alarms bool
		next   func(i int) uint64
	}{
		{"zipf", 20_000, true, func(int) uint64 { return mix64(zipf.Uint64()) }},
		{"uniform", 20_000, false, func(int) uint64 { return uint64(rng.Intn(97)) }},
		{"one class", 1_000, false, func(int) uint64 { return 7 }},
		{"all distinct", 5_000, false, func(i int) uint64 { return mix64(uint64(i)) }},
		{"biased", 4_000, true, func(int) uint64 {
			if rng.Intn(2) == 0 {
				return 0
			}
			return uint64(1 + rng.Intn(20))
		}},
		{"skew 1e6", 1_000_000, true, func(int) uint64 {
			if rng.Intn(10) != 0 {
				return 0
			}
			return uint64(1 + rng.Intn(1000))
		}},
	}
	for _, st := range streams {
		var d Drift
		counts := make(map[uint64]int)
		latched := false
		for i := 1; i <= st.n; i++ {
			class := st.next(i)
			d.Observe(class)
			counts[class]++
			if i%driftCheckEvery != 0 && i != st.n {
				continue
			}
			got, want := d.test(), DriftFromCounts(counts)
			if got != want {
				t.Fatalf("%s, sample %d: streaming %+v, from counts %+v", st.name, i, got, want)
			}
			ref := batchTest(counts)
			if got.Samples != ref.Samples || got.Classes != ref.Classes ||
				math.Abs(got.ChiSquare-ref.ChiSquare) > 1e-9*ref.ChiSquare {
				t.Fatalf("%s, sample %d: closed form %+v, term by term %+v", st.name, i, got, ref)
			}
			if i%driftCheckEvery == 0 {
				latched = latched || ref.Alarm
			}
			if d.alarmed != latched {
				t.Fatalf("%s, sample %d: alarm latched %v, the per-%d batch test says %v", st.name, i, d.alarmed, driftCheckEvery, latched)
			}
			if snap := d.Snapshot(); snap.Alarm != (latched || want.Alarm) {
				t.Fatalf("%s, sample %d: snapshot alarm %v, want %v", st.name, i, snap.Alarm, latched || want.Alarm)
			}
		}
		if d.alarmed != st.alarms {
			t.Fatalf("%s: alarm latched %v, want %v", st.name, d.alarmed, st.alarms)
		}
	}
}

// TestDriftUniformDrawsNeverAlarm: 10⁵ uniform draws pass 1562 checkpoints
// without one rejection.
func TestDriftUniformDrawsNeverAlarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Drift
	for i := 0; i < 100_000; i++ {
		d.Observe(uint64(rng.Intn(50)))
	}
	if s := d.Snapshot(); s.Alarm || s.Samples != 100_000 || s.Classes != 50 {
		t.Fatalf("uniform draws: %+v", s)
	}
}

// TestDriftOrderIndependent: the statistic is a function of the multiset of
// counts, so two cells fed one multiset in different orders export the same
// atlas.json bytes — which a float sum in map order did not promise.
func TestDriftOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Round-robin over 300 classes of 90–110 samples each, then shuffled:
	// neither order trips the (order-dependent, by design) alarm latch.
	var counts [300]int
	for class := range counts {
		counts[class] = 90 + rng.Intn(21)
	}
	var stream []uint64
	for round := 0; round < 110; round++ {
		for class, n := range counts {
			if round < n {
				stream = append(stream, mix64(uint64(class)))
			}
		}
	}
	export := func() []byte {
		reg := New()
		c := reg.Cell("tgt", "URW")
		for _, class := range stream {
			c.ObserveSchedule(class)
		}
		if u := reg.Snapshot().Cells[0].Uniformity; u.Alarm || u.ChiSquare == 0 {
			t.Fatalf("near-uniform multiset: %+v", u)
		}
		blob, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	inTurn := export()
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	if shuffled := export(); string(shuffled) != string(inTurn) {
		t.Fatalf("one multiset, two orders, two exports:\n%s\n%s", inTurn, shuffled)
	}
}

// TestDriftWideNumerator: k·Σc² past 64 bits still yields the statistic.
func TestDriftWideNumerator(t *testing.T) {
	const big = 1_500_000_000
	counts := map[uint64]int{1: big, 2: big, 3: big + 3, 4: 1}
	got := DriftFromCounts(counts)
	want := stats.ChiSquareUniform([]int{big, big, big + 3, 1}, 4)
	if math.Abs(got.ChiSquare-want) > 1e-9*want {
		t.Fatalf("chi-square %v, want %v", got.ChiSquare, want)
	}
}

// TestDriftObserveZeroAlloc: a schedule of a class already seen costs the
// tracker no allocation, the every-64th one that runs the test included.
func TestDriftObserveZeroAlloc(t *testing.T) {
	var d Drift
	for class := uint64(0); class < 40; class++ {
		d.Observe(class)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(10*driftCheckEvery, func() {
		d.Observe(i % 40)
		i++
	}); n != 0 {
		t.Fatalf("Observe of a seen class allocates %v objects; must be zero", n)
	}
}
