// Package dram models the main-memory side of co-location interference:
// the average memory access latency seen by LLC misses as a function of
// the aggregate miss bandwidth the co-located applications generate.
//
// The paper attributes co-location slowdown to contention in the shared
// LLC *and* in DRAM ("sharing of system resources such as DRAM and the
// last-level cache ... creates contention and increases the memory
// intensity of all applications" — Section I). The model here is an
// M/M/1-style queueing controller with bank-level parallelism: as the
// offered load approaches the controller's service bandwidth, queueing
// delay grows superlinearly. This is the dominant nonlinearity that makes
// the paper's neural-network models outperform the linear ones.
package dram

import (
	"fmt"
	"math"
)

// Config describes a memory controller.
type Config struct {
	// BaseLatencyNs is the unloaded (idle) access latency: row access +
	// channel transfer, in nanoseconds.
	BaseLatencyNs float64
	// PeakBandwidthGBs is the sustainable controller bandwidth in GB/s.
	PeakBandwidthGBs float64
	// Channels is the number of independent channels; load spreads evenly.
	Channels int
	// BanksPerChannel gives bank-level parallelism: more banks soften the
	// queueing knee by allowing overlapped service.
	BanksPerChannel int
	// LineBytes is the transfer granularity (one LLC line per miss).
	LineBytes int
}

// Validate checks the configuration. A NaN fails every check it meets.
func (c Config) Validate() error {
	if !(c.BaseLatencyNs > 0) || math.IsInf(c.BaseLatencyNs, 1) {
		return fmt.Errorf("dram: base latency must be positive and finite, got %v", c.BaseLatencyNs)
	}
	if !(c.PeakBandwidthGBs > 0) || math.IsInf(c.PeakBandwidthGBs, 1) {
		return fmt.Errorf("dram: peak bandwidth must be positive and finite, got %v", c.PeakBandwidthGBs)
	}
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("dram: channels and banks must be positive, got %d, %d", c.Channels, c.BanksPerChannel)
	}
	if c.LineBytes <= 0 {
		return fmt.Errorf("dram: line bytes must be positive, got %d", c.LineBytes)
	}
	return nil
}

// Controller is an analytical DRAM latency model.
type Controller struct {
	cfg Config
	// Constants of the latency model, computed once by New.
	peakBytesPerSec float64 // PeakBandwidthGBs·1e9
	serviceNs       float64 // BaseLatencyNs/√BanksPerChannel
}

// New constructs a Controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:             cfg,
		peakBytesPerSec: cfg.PeakBandwidthGBs * 1e9,
		serviceNs:       cfg.BaseLatencyNs / math.Sqrt(float64(cfg.BanksPerChannel)),
	}, nil
}

// maxUtilization caps effective utilisation so latency stays finite; real
// controllers throttle requesters rather than diverge.
const maxUtilization = 0.97

// Utilization returns the offered load as a fraction of peak bandwidth for
// the given aggregate miss rate (misses per second across all co-located
// applications), uncapped.
func (c *Controller) Utilization(missesPerSec float64) float64 {
	if missesPerSec <= 0 {
		return 0
	}
	bytesPerSec := missesPerSec * float64(c.cfg.LineBytes)
	return bytesPerSec / c.peakBytesPerSec
}

// Latency returns the average memory access latency in nanoseconds when
// the co-located applications collectively generate missesPerSec LLC
// misses per second.
//
// The model follows measured loaded-latency curves: the unloaded latency
// plus an M/M/1-form queueing term s·ρ/(1−ρ) whose effective service time
// s is the fraction of the base latency spent in the contended stages
// (controller queue, bank busy time), reduced by bank-level parallelism.
// Utilisation is capped below 1 (hardware throttles rather than
// diverges), so loaded latency saturates at several times the base —
// matching real controllers rather than growing without bound.
func (c *Controller) Latency(missesPerSec float64) float64 {
	rho := c.Utilization(missesPerSec)
	if rho > maxUtilization {
		rho = maxUtilization
	}
	queueNs := c.serviceNs * rho / (1 - rho)
	return c.cfg.BaseLatencyNs + queueNs
}
