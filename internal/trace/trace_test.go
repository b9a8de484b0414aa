package trace

import (
	"math"
	"testing"
	"time"

	"gasf/internal/tuple"
)

func TestNAMOSShape(t *testing.T) {
	sr, err := NAMOS(Config{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", sr.Len())
	}
	if got := sr.Schema().Names(); len(got) != 7 || got[6] != "fluoro" {
		t.Fatalf("schema = %v", got)
	}
	// srcStatistics of thermistor channels should be in the
	// few-hundredths range that makes Table 4.1's deltas sensible.
	for _, attr := range []string{"tmpr2", "tmpr4", "tmpr6"} {
		st, err := sr.MeanAbsChange(attr)
		if err != nil {
			t.Fatal(err)
		}
		if st < 0.001 || st > 0.2 {
			t.Errorf("srcStatistics(%s) = %g, want within [0.001, 0.2]", attr, st)
		}
	}
	// Timestamps advance by the default 10ms interval.
	if gap := sr.At(1).TS.Sub(sr.At(0).TS); gap != DefaultInterval {
		t.Errorf("interval = %v, want %v", gap, DefaultInterval)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(Config) (*tuple.Series, error){
		"namos":   NAMOS,
		"cow":     Cow,
		"seismic": Seismic,
		"fire":    FireHRR,
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			a, err := gen(Config{N: 500, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			b, err := gen(Config{N: 500, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < a.Len(); i++ {
				for j := range a.At(i).Values {
					if a.At(i).Values[j] != b.At(i).Values[j] {
						t.Fatalf("tuple %d attr %d differs across same-seed runs", i, j)
					}
				}
			}
			c, err := gen(Config{N: 500, Seed: 43})
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for i := 0; i < a.Len() && same; i++ {
				for j := range a.At(i).Values {
					if a.At(i).Values[j] != c.At(i).Values[j] {
						same = false
						break
					}
				}
			}
			if same {
				t.Error("different seeds produced identical traces")
			}
		})
	}
}

// TestCowBurstiness checks the "clustered brief changes" pattern: the cow
// trace should have both near-flat stretches and steps far above its mean
// change, unlike a uniformly smooth source.
func TestCowBurstiness(t *testing.T) {
	sr, err := Cow(Config{N: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	col, err := sr.Column("E-orient")
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := sr.MeanAbsChange("E-orient")
	big, small := 0, 0
	for i := 1; i < len(col); i++ {
		d := math.Abs(col[i] - col[i-1])
		if d > 5*mean {
			big++
		}
		if d < mean/4 {
			small++
		}
	}
	if big == 0 {
		t.Error("cow trace has no burst steps (> 5x mean change)")
	}
	if small == 0 {
		t.Error("cow trace has no quiet steps (< mean/4)")
	}
}

// TestSeismicOscillation checks sign changes: a seismic signal oscillates
// around zero many times.
func TestSeismicOscillation(t *testing.T) {
	sr, err := Seismic(Config{N: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := sr.Column("seis")
	crossings := 0
	for i := 1; i < len(col); i++ {
		if (col[i] > 0) != (col[i-1] > 0) {
			crossings++
		}
	}
	if crossings < 50 {
		t.Errorf("seismic zero crossings = %d, want >= 50", crossings)
	}
	// Amplitude should stay in a ±0.01 band.
	for i, v := range col {
		if math.Abs(v) > 0.01 {
			t.Fatalf("seismic value %d out of band: %g", i, v)
		}
	}
}

// TestFireHRRShape checks the ramp / plateau / decay structure.
func TestFireHRRShape(t *testing.T) {
	sr, err := FireHRR(Config{N: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := sr.Column("HRR")
	peak, peakAt := 0.0, 0
	for i, v := range col {
		if v > peak {
			peak, peakAt = v, i
		}
	}
	if peak < 3 || peak > 5 {
		t.Errorf("HRR peak = %g, want around 3.7", peak)
	}
	if frac := float64(peakAt) / float64(len(col)); frac > 0.7 {
		t.Errorf("peak at %.0f%% of trace, want before decay phase", frac*100)
	}
	if last := col[len(col)-1]; last > peak/2 {
		t.Errorf("HRR end value = %g, want decayed below half of peak %g", last, peak)
	}
	for i, v := range col {
		if v < 0 {
			t.Fatalf("negative HRR at %d: %g", i, v)
		}
	}
}

// TestChlorinePlumeArrival checks that the sensor sees the concentration
// rise as the plume advects past it.
func TestChlorinePlumeArrival(t *testing.T) {
	sr, err := Chlorine(ChlorineConfig{Config: Config{N: 6000, Seed: 5, Interval: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := sr.Column("chlorine")
	first, peak := col[0], 0.0
	for _, v := range col {
		if v > peak {
			peak = v
		}
		if v < 0 {
			t.Fatal("negative concentration")
		}
	}
	if peak <= first*10 && peak <= 1e-6 {
		t.Errorf("plume never arrived: first=%g peak=%g", first, peak)
	}
}

func TestPaperExample(t *testing.T) {
	sr := PaperExample()
	want := []float64{0, 35, 29, 45, 50, 59, 80, 97, 100, 112}
	if sr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", sr.Len(), len(want))
	}
	for i, w := range want {
		if got := sr.At(i).ValueAt(0); got != w {
			t.Errorf("tuple %d = %g, want %g", i, got, w)
		}
	}
}
