// Command gluenaild serves a Glue-Nail database to concurrent network
// sessions. Reads execute on MVCC snapshots — every statement (or read
// transaction) sees an immutable statement-boundary state, and writers
// never block readers; writes serialize through the WAL group-commit
// path. The execution governor runs as per-request QoS: per-session
// budgets and admission control on concurrent statements.
//
// Usage:
//
//	gluenaild [flags] [file.glue...]
//
//	-addr host:port     listen address (default 127.0.0.1:7643)
//	-data-dir d         durable EDB: write-ahead log + snapshots under d,
//	                    crash recovery on open (omit for in-memory)
//	-store name         storage engine: mem (default) or disk (relations in
//	                    on-disk runs under d/store; EDB may exceed RAM)
//	-spill-dir d        out-of-core scratch tables: spill to disk under d
//	                    instead of failing on the max-rel-rows budget
//	-spill-budget n     scratch rows held in memory before spilling
//	-max-rel-rows n     per-session in-memory rows per relation budget
//	-fsync mode         WAL fsync mode: batch (default), always, none
//	                    (or never)
//	-max-sessions n     concurrent session cap (default 1024)
//	-max-statements n   concurrent statement cap / admission gate
//	                    (default 2×GOMAXPROCS)
//	-timeout d          per-session wall-clock budget per statement
//	-max-tuples n       per-session tuple budget per statement
//	-max-depth n        per-session procedure recursion limit
//	-max-iters n        per-session repeat-loop limit (negative = off)
//	-drain-timeout d    graceful-shutdown drain budget (default 10s)
//	-verify-on-open     fsck the data directory before serving; refuse to
//	                    start if any serious (non-benign) damage is found
//	-scrub-interval d   background scrubber cadence on a disk store: one
//	                    stored run's checksums verified per interval
//	                    (0 = off)
//
// SIGINT/SIGTERM shut down gracefully: new statements are rejected,
// in-flight statements drain through the governor (cancelled past the
// drain timeout), sessions close, and — when durable — the EDB is
// checkpointed and the WAL closed cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gluenail"
	"gluenail/internal/server"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/wal"
)

// fsckDataDir runs the offline verifier over a data directory (WAL,
// snapshots, and the disk store under dir/store when present) without
// repairs, returning its findings.
func fsckDataDir(dir string) ([]storage.Finding, error) {
	findings, err := wal.Verify(dir)
	if err != nil {
		return nil, err
	}
	st := filepath.Join(dir, "store")
	if _, err := os.Stat(st); err == nil {
		df, err := disk.FsckDir(st, false)
		if err != nil {
			return nil, err
		}
		findings = append(findings, df...)
	}
	return findings, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gluenaild:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7643", "listen address")
		dataDir    = flag.String("data-dir", "", "durable EDB directory (write-ahead log + snapshots, recovered on open)")
		store      = flag.String("store", "mem", "storage engine: mem or disk")
		spillDir   = flag.String("spill-dir", "", "spill scratch tables to disk runs under this directory")
		spillBud   = flag.Int("spill-budget", 0, "scratch rows held in memory before spilling (0 = default)")
		blockCache = flag.Int("block-cache", 0, "disk engine decoded-block cache entries (0 = default)")
		noCompress = flag.Bool("no-compress", false, "store disk run blocks raw instead of compressed")
		maxRel     = flag.Int("max-rel-rows", 0, "per-session in-memory rows per relation (0 = unlimited; with -spill-dir, scratch spills instead of failing)")
		fsyncStr   = flag.String("fsync", "batch", "WAL fsync mode: batch, always, or none")
		maxSess    = flag.Int("max-sessions", 0, "concurrent session cap (0 = 1024)")
		maxStmt    = flag.Int("max-statements", 0, "concurrent statement cap (0 = 2x GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-session wall-clock budget per statement (0 = none)")
		maxTuples  = flag.Int64("max-tuples", 0, "per-session tuple budget per statement (0 = unlimited)")
		maxDepth   = flag.Int("max-depth", 0, "per-session procedure recursion limit (0 = default)")
		maxIters   = flag.Int("max-iters", 0, "per-session repeat-loop limit (0 = default, negative = unlimited)")
		drain      = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		quiet      = flag.Bool("quiet", false, "suppress per-session log lines")
		verifyOpen = flag.Bool("verify-on-open", false, "fsck the data directory before serving; refuse to start on serious damage")
		scrubEvery = flag.Duration("scrub-interval", 0, "background scrubber cadence on a disk store (0 = off)")
	)
	flag.Parse()

	if *verifyOpen && *dataDir != "" {
		findings, err := fsckDataDir(*dataDir)
		if err != nil {
			return fmt.Errorf("-verify-on-open: %w", err)
		}
		for _, f := range findings {
			log.Printf("gluenaild: verify-on-open: %s", f)
		}
		if serious := storage.CountSerious(findings); serious > 0 {
			return fmt.Errorf("-verify-on-open: %d serious finding(s); run `gluenail fsck -repair -data-dir %s` to heal or quarantine", serious, *dataDir)
		}
	}

	var opts []gluenail.Option
	if *scrubEvery > 0 {
		opts = append(opts, gluenail.WithScrubInterval(*scrubEvery))
	}
	if *store != "" && *store != "mem" {
		opts = append(opts, gluenail.WithBackend(*store))
	}
	if *spillDir != "" {
		opts = append(opts, gluenail.WithSpill(*spillDir, *spillBud))
	}
	if *blockCache != 0 {
		opts = append(opts, gluenail.WithBlockCache(*blockCache))
	}
	if *noCompress {
		opts = append(opts, gluenail.WithBlockCompression(false))
	}
	if *maxRel != 0 {
		opts = append(opts, gluenail.WithBudget(gluenail.Budget{MaxRelRows: *maxRel}))
	}
	mode, err := wal.ParseFsync(*fsyncStr)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	opts = append(opts, gluenail.WithFsync(mode))

	var sys *gluenail.System
	if *dataDir != "" {
		sys, err = gluenail.Open(*dataDir, opts...)
		if err != nil {
			return err
		}
	} else {
		sys = gluenail.New(opts...)
	}
	defer sys.Close()

	for _, path := range flag.Args() {
		if err := sys.LoadFile(path); err != nil {
			return err
		}
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := server.New(server.Config{
		System: sys,
		SessionBudget: gluenail.Budget{
			Timeout:      *timeout,
			MaxTuples:    *maxTuples,
			MaxRelRows:   *maxRel,
			MaxDepth:     *maxDepth,
			MaxLoopIters: *maxIters,
		},
		MaxSessions:   *maxSess,
		MaxStatements: *maxStmt,
		Logf:          logf,
	})
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("gluenaild: serving on %s (data-dir=%q)", lis.Addr(), *dataDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("gluenaild: %v: draining sessions (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("gluenaild: drain incomplete: %v", err)
		}
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	// Quiescent: checkpoint (durable EDB compacts the WAL into a fresh
	// snapshot) and close the log cleanly.
	if *dataDir != "" {
		if err := sys.Checkpoint(); err != nil {
			log.Printf("gluenaild: checkpoint: %v", err)
		}
	}
	if err := sys.Close(); err != nil {
		return err
	}
	log.Printf("gluenaild: shutdown complete")
	return nil
}
