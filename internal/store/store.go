package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Default tuning. Radius is in normalized feature-vector units (see
// Features.Vector); the remaining knobs are confidence/tolerance
// fractions.
const (
	// DefaultRadius is the nearest-neighbor acceptance distance.
	DefaultRadius = 0.15
	// DefaultSkipConfidence is the minimum confidence at which a
	// neighbor may skip Identify entirely (behind a probe) rather
	// than merely warm-start it.
	DefaultSkipConfidence = 0.6
	// DefaultProbeTolerance is the relative slack the verification
	// probe allows: cost(T) must be within (1+tol) of the best of
	// the probed grid points.
	DefaultProbeTolerance = 0.05
	// DefaultMaxEntries bounds the store before eviction kicks in.
	DefaultMaxEntries = 4096
	// initialConfidence is assigned to freshly inserted entries.
	initialConfidence = 0.5
	// acceptBoost / rejectFactor move confidence on probe outcomes.
	acceptBoost  = 0.05
	rejectFactor = 0.5
)

// Entry is one stored threshold: the structural features of an input,
// the threshold Identify found for it, and the bookkeeping that
// governs how eagerly it is transferred to similar inputs.
type Entry struct {
	// Key identifies the input: "dataset:<name>" or "upload:<fp>",
	// matching the serve layer's input naming.
	Key string `json:"key"`
	// Workload is cc, spmm or scalefree; thresholds never transfer
	// across workloads.
	Workload string `json:"workload"`
	// Platform is the signature of the platform the threshold was
	// estimated on (hetsim.Platform.Signature). Lookup matches only
	// entries of the caller's own platform: a threshold depends on the
	// platform as much as on the input.
	Platform string `json:"platform"`
	// Features is the structural fingerprint lookup is keyed on.
	Features Features `json:"features"`
	// Threshold is the identified threshold.
	Threshold float64 `json:"threshold"`
	// CostNS is the verified full-input cost at Threshold.
	CostNS int64 `json:"cost_ns"`
	// Confidence in (0, 1]: grows on verified transfers, decays on
	// probe rejections and on warm searches that hit the window edge.
	Confidence float64 `json:"confidence"`
	// Transfers counts successful transfers out of this entry.
	Transfers int64 `json:"transfers"`
	// UpdatedUnix is the last mutation time (unix seconds).
	UpdatedUnix int64 `json:"updated_unix"`
}

// score orders entries for eviction: confident, frequently transferred
// entries survive.
func (e *Entry) score() float64 {
	return e.Confidence * (1 + math.Log1p(float64(e.Transfers)))
}

// Neighbor is a successful lookup: a copy of the matched entry plus
// the match geometry.
type Neighbor struct {
	Entry    Entry
	Distance float64
}

// Config tunes a Store. Zero values select the defaults above.
type Config struct {
	// Path is the JSONL snapshot file; empty runs in-memory only.
	Path string
	// MaxEntries bounds the store (score-aware eviction beyond it).
	MaxEntries int
	// Radius is the nearest-neighbor acceptance distance.
	Radius float64
	// SkipConfidence gates the skip (vs warm-start) decision.
	SkipConfidence float64
	// ProbeTolerance is the verification probe's relative slack.
	ProbeTolerance float64
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.Radius <= 0 {
		c.Radius = DefaultRadius
	}
	if c.SkipConfidence <= 0 {
		c.SkipConfidence = DefaultSkipConfidence
	}
	if c.ProbeTolerance <= 0 {
		c.ProbeTolerance = DefaultProbeTolerance
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().Unix() }
	}
	return c
}

// record is the versioned JSONL line format. Unknown versions are
// skipped on load so future formats can coexist in one file.
type record struct {
	V     int    `json:"v"`
	Entry *Entry `json:"entry,omitempty"`
}

// recordVersion is the current snapshot format.
const recordVersion = 1

// Store is a bounded, persistent, structure-keyed threshold store.
// All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*Entry // keyed by Workload+"|"+Key
	appendW *bufio.Writer
	appendF *os.File
	dirty   int // appended records since last compaction
}

// Open loads (or creates) a store. A missing snapshot file is not an
// error; a corrupt line is skipped rather than failing the boot. A
// radius that is NaN or infinite is an error.
//
// A crash can leave the log's last record torn, without its newline.
// Open cuts such a tail off before the first append, so a new record
// never joins the torn line and is never lost with it on a later
// replay. A tail that is a whole record and lacks only its newline is
// kept and terminated instead.
func Open(cfg Config) (*Store, error) {
	// A NaN radius fails every "bestD > Radius" test and +Inf passes
	// none, so either would transfer from any neighbor at any distance.
	if math.IsNaN(cfg.Radius) || math.IsInf(cfg.Radius, 0) {
		return nil, fmt.Errorf("store: radius %v is not a finite distance", cfg.Radius)
	}
	s := &Store{cfg: cfg.withDefaults(), entries: make(map[string]*Entry)}
	if s.cfg.Path == "" {
		return s, nil
	}
	f, err := os.OpenFile(s.cfg.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", s.cfg.Path, err)
	}
	if err := s.replay(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read %s: %w", s.cfg.Path, err)
	}
	s.evictLocked()
	s.appendF = f
	s.appendW = bufio.NewWriter(f)
	return s, nil
}

// replay loads every record of the log in f and mends a torn tail.
func (s *Store) replay(f *os.File) error {
	r := bufio.NewReaderSize(f, 64<<10)
	var whole int64 // bytes up to and including the last newline
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(line) == 0 {
				return nil
			}
			if s.load(line) {
				_, err = f.Write([]byte{'\n'})
				return err
			}
			return f.Truncate(whole)
		}
		if err != nil {
			return err
		}
		whole += int64(len(line))
		s.load(line)
	}
}

// load replays one log line and reports whether it held a record.
// Corrupt lines and future formats are skipped.
func (s *Store) load(line []byte) bool {
	var r record
	if err := json.Unmarshal(line, &r); err != nil || r.V != recordVersion || r.Entry == nil {
		return false
	}
	s.entries[entryID(r.Entry.Workload, r.Entry.Key)] = r.Entry
	return true
}

func entryID(workload, key string) string { return workload + "|" + key }

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Put inserts or refreshes the entry for (workload, key). A fresh
// estimate resets confidence: the threshold was just verified against
// a real Identify run.
func (s *Store) Put(workload, key, platform string, f Features, threshold float64, costNS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := entryID(workload, key)
	e, ok := s.entries[id]
	if !ok {
		e = &Entry{Key: key, Workload: workload}
		s.entries[id] = e
	}
	e.Platform = platform
	e.Features = f
	e.Threshold = threshold
	e.CostNS = costNS
	if e.Confidence < initialConfidence {
		e.Confidence = initialConfidence
	}
	e.UpdatedUnix = s.cfg.Now()
	s.appendLocked(e)
	s.evictLocked()
}

// Lookup returns the nearest stored neighbor of f for the workload on
// the platform within the configured radius. Entries estimated on
// another platform never match. Equal distances break toward the
// lexicographically smallest key, so lookups are deterministic. The
// caller's own entry (sameKey) is excluded: transfer is only
// interesting across inputs. Lookup never writes.
func (s *Store) Lookup(workload, platform, sameKey string, f Features) (Neighbor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Entry
	bestD := math.Inf(1)
	for _, e := range s.entries {
		if e.Workload != workload || e.Platform != platform || e.Key == sameKey {
			continue
		}
		d := f.Distance(e.Features)
		if d < bestD || (d == bestD && best != nil && e.Key < best.Key) {
			best, bestD = e, d
		}
	}
	if best == nil || bestD > s.cfg.Radius {
		return Neighbor{}, false
	}
	return Neighbor{Entry: *best, Distance: bestD}, true
}

// CanSkip reports whether the neighbor is confident enough to skip
// Identify entirely (subject to a verification probe).
func (s *Store) CanSkip(n Neighbor) bool {
	return n.Entry.Confidence >= s.cfg.SkipConfidence
}

// AcceptProbe applies the verification rule: the transferred
// threshold's cost must be within (1 + tolerance) of the best probed
// cost. costAt is the cost at the transferred threshold; others are
// the costs at the neighboring grid points probed alongside it.
func (s *Store) AcceptProbe(costAt int64, others ...int64) bool {
	best := costAt
	for _, c := range others {
		if c < best {
			best = c
		}
	}
	if best <= 0 {
		return costAt <= best
	}
	return float64(costAt) <= (1+s.cfg.ProbeTolerance)*float64(best)
}

// Observe records a probe outcome for the entry behind a transfer.
// Accepting nudges confidence up and counts a transfer; rejecting
// halves it.
func (s *Store) Observe(workload, key string, accepted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryID(workload, key)]
	if !ok {
		return
	}
	if accepted {
		e.Confidence += acceptBoost
		if e.Confidence > 1 {
			e.Confidence = 1
		}
		e.Transfers++
	} else {
		e.Confidence *= rejectFactor
	}
	e.UpdatedUnix = s.cfg.Now()
	s.appendLocked(e)
}

// Get returns a copy of the entry for (workload, key).
func (s *Store) Get(workload, key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryID(workload, key)]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// appendLocked writes one record to the append log. Append errors are
// swallowed: the store is a cache, and serving must not fail because
// the disk did.
func (s *Store) appendLocked(e *Entry) {
	if s.appendW == nil {
		return
	}
	b, err := json.Marshal(record{V: recordVersion, Entry: e})
	if err != nil {
		return
	}
	s.appendW.Write(b)
	s.appendW.WriteByte('\n')
	s.dirty++
}

// evictLocked enforces MaxEntries, dropping the lowest-scoring (then
// oldest, then lexicographically smallest) entries first.
func (s *Store) evictLocked() {
	if len(s.entries) <= s.cfg.MaxEntries {
		return
	}
	all := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		si, sj := all[i].score(), all[j].score()
		if si != sj {
			return si < sj
		}
		if all[i].UpdatedUnix != all[j].UpdatedUnix {
			return all[i].UpdatedUnix < all[j].UpdatedUnix
		}
		return entryID(all[i].Workload, all[i].Key) < entryID(all[j].Workload, all[j].Key)
	})
	for _, e := range all[:len(all)-s.cfg.MaxEntries] {
		delete(s.entries, entryID(e.Workload, e.Key))
	}
}

// Flush compacts the snapshot: the live entries are written to a
// temporary file which atomically replaces the append log. A no-op
// for in-memory stores.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.cfg.Path == "" {
		return nil
	}
	if s.appendW != nil {
		s.appendW.Flush()
	}
	dir := filepath.Dir(s.cfg.Path)
	tmp, err := os.CreateTemp(dir, ".hetstore-*")
	if err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	// Deterministic snapshot order: sorted by id.
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, err := json.Marshal(record{V: recordVersion, Entry: s.entries[id]})
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: flush: %w", err)
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: flush: %w", err)
	}
	// The snapshot must be on disk before the rename makes it the log:
	// a crash in between must leave either the old log or a whole new
	// one, never an empty file under the log's name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.Path); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	// Reopen the append log on the new inode.
	if s.appendF != nil {
		s.appendF.Close()
	}
	f, err := os.OpenFile(s.cfg.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.appendF, s.appendW = nil, nil
		return fmt.Errorf("store: reopen after flush: %w", err)
	}
	s.appendF = f
	s.appendW = bufio.NewWriter(f)
	s.dirty = 0
	return nil
}

// Close flushes and releases the snapshot file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	if s.appendF != nil {
		if cerr := s.appendF.Close(); err == nil {
			err = cerr
		}
		s.appendF, s.appendW = nil, nil
	}
	if errors.Is(err, os.ErrClosed) {
		err = nil
	}
	return err
}
