package main

import (
	"io"

	"gluenail"
)

// prepared is a compiled query that can be executed repeatedly.
type prepared interface {
	Execute() (*gluenail.Result, error)
}

// foreignFn is the signature of a registered Go procedure.
type foreignFn = func(in [][]gluenail.Value) ([][]gluenail.Value, error)

// engine is the slice of the product's embedded API the workloads drive.
// The untraced runs use the product's own System; the traced run swaps in
// the staged pipeline (staged.go), which makes the same calls into the
// layers step by step with a span around each.
type engine interface {
	Register(name string, bound, free int, fixed bool, fn foreignFn) error
	Load(src string) error
	Assert(relation any, rows ...[]any) error
	Retract(relation any, rows ...[]any) error
	Relation(relation any, arity int) ([][]gluenail.Value, error)
	Query(goals string) (*gluenail.Result, error)
	Prepare(goals string) (prepared, error)
	Call(module, proc string, in ...[]any) ([][]gluenail.Value, error)
	Procs() ([]string, error)
	Stats() gluenail.Stats
	PlanCacheStats() gluenail.PlanCacheStats
	Close() error
}

// engineConfig names the only settings a workload may move off the
// product's defaults: where durable state lives, which storage engine
// holds it, and the two sizes the disk workload states in its output.
type engineConfig struct {
	dir         string // durable directory; "" = volatile
	backend     string // "" (mem) or "disk"
	cacheBlocks int    // disk block cache entries; 0 = engine default
	ckptBytes   int64  // WAL checkpoint threshold; 0 = default
	fs          *countFS
}

func (c engineConfig) options() []gluenail.Option {
	// Output is a deployment setting, as in the examples: procedures that
	// write must not print into the benchmark's result stream.
	opts := []gluenail.Option{gluenail.WithOutput(io.Discard)}
	if c.backend != "" {
		opts = append(opts, gluenail.WithBackend(c.backend))
	}
	if c.cacheBlocks != 0 {
		opts = append(opts, gluenail.WithBlockCache(c.cacheBlocks))
	}
	if c.ckptBytes != 0 {
		opts = append(opts, gluenail.WithCheckpointThreshold(c.ckptBytes))
	}
	if c.fs != nil {
		opts = append(opts, gluenail.WithFS(c.fs))
	}
	return opts
}

// openSystem opens the product's System under cfg: Open for a durable
// directory (WAL fsync=batch, the default), New otherwise.
func openSystem(cfg engineConfig) (*gluenail.System, error) {
	if cfg.dir != "" {
		return gluenail.Open(cfg.dir, cfg.options()...)
	}
	return gluenail.New(cfg.options()...), nil
}

// apiEngine adapts *gluenail.System to engine.
type apiEngine struct{ *gluenail.System }

func (a apiEngine) Prepare(goals string) (prepared, error) {
	p, err := a.System.Prepare(goals)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// openEngine opens the system under test: the product's System when tr is
// nil, the staged pipeline recording into tr otherwise.
func openEngine(cfg engineConfig, tr *tracer) (engine, error) {
	if tr != nil {
		return openStaged(cfg, tr)
	}
	sys, err := openSystem(cfg)
	if err != nil {
		return nil, err
	}
	return apiEngine{sys}, nil
}
