package condor

import (
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/sim"
	"condorj2/internal/sqldb"
)

// Pool assembles a complete Condor deployment on the simulation engine:
// execute nodes (startd per physical machine), the collector/negotiator
// pair, one or more schedds, and a master watching them.
type Pool struct {
	Eng        *sim.Engine
	Collector  *Collector
	Negotiator *Negotiator
	Schedds    []*Schedd
	Startds    []*Startd
	Kernels    []*cluster.Kernel
	Master     *Master
}

// PoolConfig sizes a pool.
type PoolConfig struct {
	// Nodes describes the physical execute machines.
	Nodes []cluster.NodeConfig
	// Schedds configures each schedd.
	Schedds []ScheddConfig
	// NegotiationInterval paces matchmaking cycles.
	NegotiationInterval time.Duration
	// UpdateInterval paces startd → collector updates.
	UpdateInterval time.Duration
}

// NewPool builds and starts all daemons.
func NewPool(eng *sim.Engine, cfg PoolConfig) (*Pool, error) {
	p := &Pool{Eng: eng, Collector: NewCollector()}
	for _, nc := range cfg.Nodes {
		k := cluster.NewKernel(eng, nc)
		p.Kernels = append(p.Kernels, k)
		p.Startds = append(p.Startds, NewStartd(eng, k, p.Collector, cfg.UpdateInterval))
	}
	vfs := sqldb.NewMemVFS()
	for _, sc := range cfg.Schedds {
		if sc.VFS == nil {
			sc.VFS = vfs
		}
		s, err := NewSchedd(eng, sc)
		if err != nil {
			return nil, err
		}
		p.Schedds = append(p.Schedds, s)
	}
	p.Negotiator = NewNegotiator(eng, p.Collector, p.Schedds, cfg.NegotiationInterval)
	p.Master = NewMaster(eng, 0)
	return p, nil
}

// RunningJobs totals executing jobs across schedds (Figures 15/16's
// jobs-in-progress series).
func (p *Pool) RunningJobs() int {
	n := 0
	for _, s := range p.Schedds {
		n += s.Running()
	}
	return n
}

// Close releases schedd job logs and stops tickers.
func (p *Pool) Close() {
	p.Negotiator.Stop()
	for _, s := range p.Schedds {
		s.Close()
	}
	for _, sd := range p.Startds {
		sd.Stop()
	}
}
