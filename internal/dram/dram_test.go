package dram

import (
	"math"
	"testing"
	"testing/quick"
)

// saturationRate is the miss rate (misses/second) at which utilisation
// reaches maxUtilization and latency stops growing.
func saturationRate(c *Controller) float64 {
	return maxUtilization * c.cfg.PeakBandwidthGBs * 1e9 / float64(c.cfg.LineBytes)
}

func validCfg() Config {
	return Config{
		BaseLatencyNs:    80,
		PeakBandwidthGBs: 32,
		Channels:         3,
		BanksPerChannel:  8,
		LineBytes:        64,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Config){
		func(c *Config) { c.BaseLatencyNs = 0 },
		func(c *Config) { c.PeakBandwidthGBs = -1 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.LineBytes = 0 },
	}
	for i, m := range mut {
		cfg := validCfg()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero config")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, field := range map[string]func(*Config) *float64{
			"BaseLatencyNs":    func(c *Config) *float64 { return &c.BaseLatencyNs },
			"PeakBandwidthGBs": func(c *Config) *float64 { return &c.PeakBandwidthGBs },
		} {
			cfg := validCfg()
			*field(&cfg) = v
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

func TestIdleLatencyIsBase(t *testing.T) {
	c, err := New(validCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Latency(0); got != 80 {
		t.Fatalf("idle latency %v, want 80", got)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	c, _ := New(validCfg())
	prev := c.Latency(0)
	for load := 1e6; load < 1e12; load *= 2 {
		l := c.Latency(load)
		if l < prev-1e-9 {
			t.Fatalf("latency decreased at load %v: %v < %v", load, l, prev)
		}
		prev = l
	}
}

func TestLatencySuperlinearNearSaturation(t *testing.T) {
	c, _ := New(validCfg())
	cap := saturationRate(c)
	low := c.Latency(0.1*cap) - c.Latency(0)
	high := c.Latency(0.95*cap) - c.Latency(0.85*cap)
	// The same 10%-of-cap increment must cost far more delay near
	// saturation than near idle: the queueing nonlinearity.
	if high < 5*low {
		t.Fatalf("queueing knee too soft: low-delta %v, high-delta %v", low, high)
	}
}

func TestLatencyFiniteBeyondSaturation(t *testing.T) {
	c, _ := New(validCfg())
	l := c.Latency(1e18)
	if math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatalf("latency not finite at overload: %v", l)
	}
}

func TestUtilizationLinear(t *testing.T) {
	c, _ := New(validCfg())
	// 32 GB/s peak, 64B lines: 0.5e9 misses/s = full utilisation.
	u := c.Utilization(0.5e9)
	if math.Abs(u-1) > 1e-9 {
		t.Fatalf("utilization = %v, want 1", u)
	}
	if c.Utilization(-5) != 0 {
		t.Fatal("negative load gives nonzero utilization")
	}
}

// TestBandwidthCapAndThrottle: offered demand beyond the saturation rate
// is throttled, so it costs exactly the latency of the saturation rate,
// while demand below it costs less.
func TestBandwidthCapAndThrottle(t *testing.T) {
	c, _ := New(validCfg())
	cap := saturationRate(c)
	if got, want := c.Latency(2*cap), c.Latency(cap); got != want {
		t.Fatalf("latency at twice the cap %v, want the cap's %v", got, want)
	}
	if c.Latency(cap/2) >= c.Latency(cap) {
		t.Fatalf("below-cap latency %v not below the cap's %v", c.Latency(cap/2), c.Latency(cap))
	}
}

func TestMoreBanksLowerQueueing(t *testing.T) {
	few := validCfg()
	few.BanksPerChannel = 1
	many := validCfg()
	many.BanksPerChannel = 16
	cf, _ := New(few)
	cm, _ := New(many)
	load := 0.9 * saturationRate(cf)
	if cm.Latency(load) >= cf.Latency(load) {
		t.Fatalf("more banks did not reduce latency: %v vs %v", cm.Latency(load), cf.Latency(load))
	}
}

// Property: latency ≥ base latency for all finite loads.
func TestLatencyBoundsProperty(t *testing.T) {
	c, _ := New(validCfg())
	f := func(loadRaw uint32) bool {
		load := float64(loadRaw) * 1e4
		l := c.Latency(load)
		return l >= c.cfg.BaseLatencyNs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLatency(b *testing.B) {
	c, _ := New(validCfg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Latency(float64(i % 1000000000))
	}
}
