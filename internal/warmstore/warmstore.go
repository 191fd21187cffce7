// Package warmstore is a content-addressed on-disk store for expensive
// session state — alignment pre-characterization tables, bucketed rough
// driver fits, and exact-keyed C-effective characterizations — so a new
// process starts warm instead of re-deriving them.
//
// Addressing is by identity, not by name: the caller derives a key from
// everything the stored artifacts depend on (technology, cell library
// fingerprint, characterization configuration, and a schema version for
// the code that produced them), so a store shared across runs, branches,
// or versions can never serve stale state — a changed input simply
// addresses a different entry. Entries are whole-file JSON payloads
// wrapped in a checksummed colblob frame; a corrupt or truncated entry
// reads as a miss, never an error, because warm start is an
// optimization and must not be able to fail a run.
package warmstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/colblob"
	"repro/internal/metrics"
)

// SchemaVersion invalidates every store entry when the persisted layout
// (or the meaning of the persisted numbers) changes: it participates in
// Key, so old entries become unaddressable rather than misread.
const SchemaVersion = 4

// FrameEntry is the colblob frame kind wrapping a store payload
// (exported for the noiseblob inspector).
const FrameEntry byte = 0x10

// Key derives the content address for an identity value. identity must
// be a pure comparable value (strings, bools, sized ints, uint64 float
// bits — the same discipline memo cache keys follow, and for the same
// reason: float fields format ambiguously and alias across NaN
// payloads, and pointers would address by identity, not content). The
// noiselint cachekey analyzer audits call sites.
func Key(identity any) string {
	return fmt.Sprintf("%016x", colblob.ID(fmt.Appendf(nil, "v%d|%#v", SchemaVersion, identity)))
}

// Store is a directory of checksummed, content-addressed entries. A nil
// *Store is a valid no-op (every Load misses, every Save is dropped),
// so callers thread an optional store without branching.
type Store struct {
	dir string
	reg *metrics.Registry
}

// Open returns a store rooted at dir, creating the directory if needed.
// The registry (nil for none) receives store.* counters: hits, misses,
// corrupt entries, saves, and bytes read/written.
func Open(dir string, reg *metrics.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warmstore: %w", err)
	}
	return &Store{dir: dir, reg: reg}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Metric-name constant table (enforced by noiselint/metricflow): the
// store.* series in one place. hits/misses/corrupt partition Load
// outcomes; saves and the two byte counters size the disk traffic.
const (
	mStoreSaves        = "store.saves"
	mStoreHits         = "store.hits"
	mStoreMisses       = "store.misses"
	mStoreCorrupt      = "store.corrupt"
	mStoreBytesWritten = "store.bytes.written"
	mStoreBytesRead    = "store.bytes.read"
)

func (s *Store) count(name string) {
	if s.reg != nil {
		s.reg.Counter(name).Inc()
	}
}

func (s *Store) add(name string, n int64) {
	if s.reg != nil {
		s.reg.Counter(name).Add(n)
	}
}

// path maps a key to its entry file.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".warm") }

// Save persists v under key, atomically: the entry is written to a
// temporary file and renamed into place, so concurrent readers (and
// crashes) see either the old entry or the new one, never a torn one.
func (s *Store) Save(key string, v any) error {
	if s == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("warmstore: encode %s: %w", key, err)
	}
	data := colblob.AppendFrame(nil, FrameEntry, payload)
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("warmstore: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("warmstore: write %s: %w", key, cmpErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("warmstore: %w", err)
	}
	s.count(mStoreSaves)
	s.add(mStoreBytesWritten, int64(len(data)))
	return nil
}

func cmpErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Load reads the entry under key into v (a pointer for json.Unmarshal).
// A missing, truncated, corrupt, or undecodable entry is a miss (false,
// nil) — the caller recomputes and may re-Save. Only environmental
// failures (permissions, I/O errors) surface as errors.
func (s *Store) Load(key string, v any) (bool, error) {
	if s == nil {
		return false, nil
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.count(mStoreMisses)
			return false, nil
		}
		return false, fmt.Errorf("warmstore: %w", err)
	}
	fr := colblob.NewFrameReader(bytes.NewReader(data))
	kind, payload, err := fr.Next()
	if err != nil || kind != FrameEntry {
		s.count(mStoreCorrupt)
		s.count(mStoreMisses)
		return false, nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		s.count(mStoreCorrupt)
		s.count(mStoreMisses)
		return false, nil
	}
	s.count(mStoreHits)
	s.add(mStoreBytesRead, int64(len(data)))
	return true, nil
}

// Keys lists the keys of every entry currently in the store (for the
// noiseblob inspector; order is the directory order).
func (s *Store) Keys() ([]string, error) {
	if s == nil {
		return nil, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("warmstore: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if name, ok := cutSuffix(e.Name(), ".warm"); ok && !e.IsDir() {
			keys = append(keys, name)
		}
	}
	return keys, nil
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) <= len(suffix) || s[len(s)-len(suffix):] != suffix {
		return s, false
	}
	return s[:len(s)-len(suffix)], true
}
