package gluenail

// Snapshot sessions: concurrent, isolated reads over a live System.
//
// A Snapshot captures the EDB at a statement boundary (the multi-version
// machinery lives in internal/storage: commit-sequence-number dead stamps
// plus copy-on-write through the garbage collector) and executes queries
// on a private machine with a private scratch store, entirely outside the
// System's lock. Any number of snapshot sessions run concurrently with
// each other and with the single writer; the writer never waits for a
// reader and a reader never waits for the writer. Every query a session
// runs sees exactly the state its snapshot captured — byte-identical
// results no matter what commits afterwards, including recursive queries.

import (
	"context"
	"fmt"
	"io"
	"sync"

	"gluenail/internal/storage"
	"gluenail/internal/vm"
)

// Snapshot is an isolated read session over the state of the System at
// the moment it was taken. It answers queries concurrently with the live
// system's writers and with other snapshots, always from its captured
// state. A Snapshot executes one statement at a time (concurrent calls on
// the same snapshot serialize); open as many snapshots as there are
// concurrent readers. Writes through a snapshot — EDB updates reached by
// a procedure a query calls — fail with a governed error.
//
// A Snapshot holds no locks and pins no writer resources; dropping it
// (or calling Close) releases its captured memory to the garbage
// collector once the last reference is gone.
type Snapshot struct {
	sys *System
	// gate serializes statements on this session (see do): the machine is
	// stateful (frames, profiles, plan-cache counters) and runs one call at
	// a time.
	gate    sync.Mutex
	store   storage.SnapshotStore
	temp    storage.Scratch
	machine *vm.Machine
	budget  Budget
	closed  bool
}

// Snapshot opens an isolated read session over the current committed
// state. Both storage engines, mem and disk, support snapshots; the
// "layered" baseline has no multi-version support and refuses them. The
// snapshot inherits the system's configured budget; SetBudget overrides
// it per session.
func (s *System) Snapshot() (*Snapshot, error) {
	return value(s, needProgram, func() (*Snapshot, error) {
		if s.eng == nil {
			return nil, fmt.Errorf("gluenail: snapshots require a multi-version backend (not the \"layered\" baseline)")
		}
		store, err := s.eng.SnapshotView()
		if err != nil {
			return nil, err
		}
		temp, err := newScratchStore(&s.cfg)
		if err != nil {
			closeStores(store)
			return nil, err
		}
		// Session I/O is private: write/nl output from a snapshot query is
		// discarded unless SetOutput directs it somewhere, and read_line
		// sees EOF (the machine's own empty input). The shared trace
		// writer is not inherited — interleaved trace lines from
		// concurrent sessions would be garbage.
		m := s.newMachine(store, temp, io.Discard)
		return &Snapshot{sys: s, store: store, temp: temp, machine: m, budget: s.cfg.budget}, nil
	})
}

// do is the session's gate, the snapshot half of System.do: it runs op as
// one statement of the session under the session's lock, fails once the
// session is closed, and returns a storage-fault panic out of the captured
// store as op's typed error. A step that needs the live program enters
// System.do from inside op, so the lock order is always the session's lock,
// then the System's; a read of the captured state takes no System lock.
func (sn *Snapshot) do(op func() error) (err error) {
	sn.gate.Lock()
	defer sn.gate.Unlock()
	defer guardStorage(&err, nil)
	if sn.closed {
		return errSnapshotClosed
	}
	return op()
}

// closeStores closes each store that has a Close method (disk engines and
// disk-backed snapshot views pin run files; spill scratch stores own a
// directory) and returns the first error. Main-memory stores close as
// no-ops.
func closeStores(stores ...any) (err error) {
	for _, st := range stores {
		if c, ok := st.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// CSN returns the commit sequence number the snapshot was captured at;
// it identifies the exact committed state every query of this session
// reads.
func (sn *Snapshot) CSN() uint64 { return sn.store.CSN() }

// CSN returns the system's current commit sequence number: the count of
// committed statement boundaries. Zero for the layered backend (which
// has no multi-version support).
func (s *System) CSN() uint64 {
	csn, _ := value(s, needLock, func() (csn uint64, _ error) {
		if s.eng != nil {
			csn = s.eng.CommitCSN()
		}
		return csn, nil
	})
	return csn
}

// SetBudget replaces the session's resource budget: subsequent queries
// run under b's timeout, tuple, cardinality, depth, and loop limits,
// enforced by the execution governor exactly as on the live system.
func (sn *Snapshot) SetBudget(b Budget) {
	_ = sn.do(func() error {
		sn.budget = b
		sn.sys.tuneMachine(sn.machine, b)
		return nil
	})
}

// SetOutput directs write/nl output from this session's queries to w.
func (sn *Snapshot) SetOutput(w io.Writer) {
	_ = sn.do(func() error {
		sn.machine.Out = w
		return nil
	})
}

// Close ends the session and releases its captured resources. For a
// main-memory snapshot closing is optional (an abandoned session costs
// only memory until the garbage collector reclaims it); a disk-backed
// snapshot pins run file handles and a spill-configured session owns a
// scratch directory, so those sessions should be closed.
func (sn *Snapshot) Close() error {
	sn.gate.Lock()
	defer sn.gate.Unlock()
	if sn.closed {
		return nil
	}
	sn.closed = true
	sn.machine = nil
	return closeStores(sn.store, sn.temp)
}

// Query evaluates a goal conjunction in the main module's scope against
// the snapshot.
func (sn *Snapshot) Query(goals string) (*Result, error) {
	return sn.QueryInContext(context.Background(), "main", goals)
}

// QueryContext is Query under the caller's context; cancellation and
// deadlines abort with a *GovernorError exactly as on the live system.
func (sn *Snapshot) QueryContext(ctx context.Context, goals string) (*Result, error) {
	return sn.QueryInContext(ctx, "main", goals)
}

// QueryIn evaluates a goal conjunction in the named module's scope
// against the snapshot.
func (sn *Snapshot) QueryIn(module, goals string) (*Result, error) {
	return sn.QueryInContext(context.Background(), module, goals)
}

// QueryInContext is QueryIn under the caller's context.
//
// Compilation (shared, cached, under the system's lock) and execution
// (private, against the captured state, outside it) are split: a query
// text seen before costs no lock beyond the cache probe.
func (sn *Snapshot) QueryInContext(ctx context.Context, module, goals string) (*Result, error) {
	return sn.execute(ctx, &Prepared{sys: sn.sys, module: module, goals: goals})
}

// Execute runs a prepared query against the snapshot: the server's hot
// path — parse, compile, and physical planning amortized across sessions
// through the shared Prepared handle and the plans cached on the compiled
// program.
func (sn *Snapshot) Execute(p *Prepared) (*Result, error) {
	return sn.ExecuteContext(context.Background(), p)
}

// ExecuteContext is Execute under the caller's context.
func (sn *Snapshot) ExecuteContext(ctx context.Context, p *Prepared) (*Result, error) {
	if p.sys != sn.sys {
		return nil, fmt.Errorf("gluenail: prepared query belongs to a different System")
	}
	return sn.execute(ctx, p)
}

// execute resolves a query under the system lock and runs it on the
// session machine, outside it, under the session budget.
func (sn *Snapshot) execute(ctx context.Context, p *Prepared) (*Result, error) {
	var res *Result
	err := sn.do(func() error {
		q, err := value(sn.sys, needProgram, func() (compiledQuery, error) { return sn.sys.resolve(p) })
		if err != nil {
			return err
		}
		res, err = runQuery(ctx, sn.machine, sn.budget.Timeout, q)
		return err
	})
	return res, err
}

// Relation returns the snapshot's sorted contents of an EDB relation —
// the state at capture, regardless of later commits.
func (sn *Snapshot) Relation(relation any, arity int) ([][]Value, error) {
	var rows [][]Value
	err := sn.do(func() (err error) {
		rows, err = readRelation(sn.store, relation, arity)
		return err
	})
	return rows, err
}

var errSnapshotClosed = fmt.Errorf("gluenail: snapshot session is closed")
