// Package mem registers the tailored main-memory engine — storage.MemStore,
// the default — under the backend name "mem", so the engine selected by
// flag or option resolves through one registry regardless of which engine
// it is. The implementation lives in the parent storage package because the
// executor's hot paths (the shared hash table, chunked row storage,
// zero-allocation dedup) are written directly against it.
package mem

import "gluenail/internal/storage"

func init() {
	storage.RegisterBackend("mem", func(cfg storage.BackendConfig) (storage.Backend, error) {
		return storage.NewMemStore(cfg.Policy), nil
	})
}
