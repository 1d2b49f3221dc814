package server

import (
	"errors"
	"fmt"
	"sync"

	"rckalign/internal/pdb"
	"rckalign/internal/tmalign"
)

// ErrUnknownStructure is the typed not-found error for structure
// lookups: the HTTP layer maps it to 404 and CLIs to a one-line exit-2
// diagnostic (match with errors.Is).
var ErrUnknownStructure = errors.New("unknown structure")

// ErrDuplicateStructure is returned when an upload reuses an existing
// structure ID; the HTTP layer maps it to 409.
var ErrDuplicateStructure = errors.New("duplicate structure id")

// DB is the server's growing structure database: an append-only,
// insertion-ordered collection of parsed structures with unique IDs.
// Indices are assigned at insertion and never change, so they define
// the canonical pair orientation (compare index-lower vs index-higher)
// that keeps served scores bit-identical to a batch run over the same
// structures in the same order. An entry is prepared by the first
// comparison that needs it, not at Add, so a preloaded dataset pays only
// for what its queries reach. All methods are safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	structs []*tmalign.Lazy
	index   map[string]int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{index: map[string]int{}}
}

// Add appends a structure and returns its index. An empty ID is
// auto-assigned ("s0007" for index 7); a duplicate ID is rejected with
// ErrDuplicateStructure. The structure must not be mutated after Add.
func (db *DB) Add(s *pdb.Structure) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s.ID == "" {
		s.ID = fmt.Sprintf("s%04d", len(db.structs))
	}
	if i, ok := db.index[s.ID]; ok {
		return i, fmt.Errorf("%w: %q is structure %d", ErrDuplicateStructure, s.ID, i)
	}
	i := len(db.structs)
	db.structs = append(db.structs, &tmalign.Lazy{Structure: s})
	db.index[s.ID] = i
	return i, nil
}

// Lookup resolves a structure ID to its index and entry, or returns an
// error wrapping ErrUnknownStructure.
func (db *DB) Lookup(id string) (int, *tmalign.Lazy, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i, ok := db.index[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w %q", ErrUnknownStructure, id)
	}
	return i, db.structs[i], nil
}

// Len returns the number of stored structures.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.structs)
}

// Snapshot returns the entries in insertion order. The slice is a copy;
// the entries are shared (and their structures immutable by convention).
func (db *DB) Snapshot() []*tmalign.Lazy {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*tmalign.Lazy(nil), db.structs...)
}
