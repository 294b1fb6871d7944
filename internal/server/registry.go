package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"marioh"
	"marioh/internal/admission"
	"marioh/internal/durability"
)

// ErrModelNotFound is returned by registry lookups for unknown names;
// handlers map it to 404.
var ErrModelNotFound = errors.New("server: model not found")

// ErrStorage marks registry failures caused by the backing store (disk
// full, permissions, I/O) rather than the request; handlers map it to
// 500 instead of 400.
var ErrStorage = errors.New("server: model storage")

// modelNameRe restricts registry names to path-safe tokens, so a name can
// never escape the registry directory.
var modelNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

const modelExt = ".model.json"

// ModelInfo describes one registry entry for listings.
type ModelInfo struct {
	Name       string    `json:"name"`
	Featurizer string    `json:"featurizer"`
	Sizes      []int     `json:"sizes"`
	Bytes      int       `json:"bytes"`
	Saved      time.Time `json:"saved"`
}

// Registry is a named store of trained models: serialized JSON on disk
// (or in memory when no directory is configured) with an LRU cache of
// decoded models in front, so repeated reconstructions against the same
// model skip deserialization.
type Registry struct {
	dir string // "" = memory-only
	cap int

	// budget, when set (before any traffic), meters decoded cached models
	// under budgetPoolModels (by their serialized size, the best cheap
	// proxy for the decoded weights).
	budget *admission.Budget

	mu     sync.Mutex
	raw    map[string][]byte        // guarded by mu; memory-only backing store (dir == "")
	saved  map[string]time.Time     // guarded by mu
	meta   map[string]ModelInfo     // guarded by mu; listing metadata, recorded at Put
	hashes map[string]string        // guarded by mu; name → hex SHA-256 of the serialized bytes
	cache  map[string]*list.Element // guarded by mu; name → lru element
	lru    *list.List               // guarded by mu; front = most recent, values are *cacheEntry
}

// budgetPoolModels is the Budget pool metering decoded cached models.
const budgetPoolModels = "models"

// cacheEntry pairs a decoded model with its registry name and metered
// size for LRU eviction.
type cacheEntry struct {
	name  string
	model *marioh.Model
	size  int64
}

// NewRegistry opens (and creates) the registry directory and indexes the
// models already present. dir == "" keeps everything in memory. cacheSize
// bounds the decoded-model LRU (minimum 1).
func NewRegistry(dir string, cacheSize int) (*Registry, error) {
	if cacheSize < 1 {
		cacheSize = 1
	}
	r := &Registry{
		dir:    dir,
		cap:    cacheSize,
		raw:    map[string][]byte{},
		saved:  map[string]time.Time{},
		meta:   map[string]ModelInfo{},
		hashes: map[string]string{},
		cache:  map[string]*list.Element{},
		lru:    list.New(),
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: registry dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: registry dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), modelExt)
		if !ok || e.IsDir() || !modelNameRe.MatchString(name) {
			continue
		}
		if info, err := e.Info(); err == nil {
			r.saved[name] = info.ModTime()
		} else {
			r.saved[name] = time.Now()
		}
	}
	return r, nil
}

func (r *Registry) path(name string) string {
	return filepath.Join(r.dir, name+modelExt)
}

// validName rejects names that are empty, oversized, or not path-safe.
func validName(name string) error {
	if !modelNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid model name %q (want %s)", name, modelNameRe)
	}
	return nil
}

// Save serializes a trained model under name, replacing any previous
// entry.
func (r *Registry) Save(name string, m *marioh.Model) error {
	var buf bytes.Buffer
	if err := marioh.SaveModel(&buf, m); err != nil {
		return err
	}
	return r.Put(name, buf.Bytes())
}

// Put stores a serialized model under name after validating that it
// decodes (so the registry can never hold a model Get would fail on).
// Disk writes happen outside the registry lock (via a temp file + atomic
// rename, without fsync), so a slow disk never stalls concurrent lookups;
// a failed write wraps durability.ErrStorage.
func (r *Registry) Put(name string, raw []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	m, err := marioh.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if r.dir != "" {
		if err := durability.WriteFileAtomic(r.path(name), false, func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		}); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir == "" {
		r.raw[name] = append([]byte(nil), raw...)
	}
	now := time.Now()
	r.saved[name] = now
	delete(r.hashes, name) // the bytes changed; re-hash lazily
	r.meta[name] = ModelInfo{
		Name:       name,
		Featurizer: m.Feat.Name(),
		Sizes:      append([]int(nil), m.Net.Sizes...),
		Bytes:      len(raw),
		Saved:      now,
	}
	r.cacheLocked(name, m, int64(len(raw)))
	return nil
}

// Hash returns the hex SHA-256 of the model's serialized bytes, memoized
// until the entry changes. It is the model component of content-addressed
// dedup keys: two registry entries with the same bytes reconstruct
// identically, whatever they are named.
func (r *Registry) Hash(name string) (string, error) {
	if err := validName(name); err != nil {
		return "", err
	}
	r.mu.Lock()
	if h, ok := r.hashes[name]; ok {
		r.mu.Unlock()
		return h, nil
	}
	r.mu.Unlock()
	raw, err := r.rawBytes(name)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	h := hex.EncodeToString(sum[:])
	r.mu.Lock()
	if _, ok := r.saved[name]; ok { // don't re-memoize a concurrent delete
		r.hashes[name] = h
	}
	r.mu.Unlock()
	return h, nil
}

// Raw returns the serialized bytes of a stored model.
func (r *Registry) Raw(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return r.rawBytes(name)
}

// rawBytes loads a model's serialization, reading disk outside the lock.
func (r *Registry) rawBytes(name string) ([]byte, error) {
	r.mu.Lock()
	_, ok := r.saved[name]
	var mem []byte
	if ok && r.dir == "" {
		mem = append([]byte(nil), r.raw[name]...)
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if r.dir == "" {
		return mem, nil
	}
	raw, err := os.ReadFile(r.path(name))
	switch {
	case errors.Is(err, os.ErrNotExist): // deleted concurrently
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return raw, nil
}

// Get returns the decoded model stored under name, from the LRU cache
// when warm. Cache misses read and decode outside the lock.
func (r *Registry) Get(name string) (*marioh.Model, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if el, ok := r.cache[name]; ok {
		r.lru.MoveToFront(el)
		m := el.Value.(*cacheEntry).model
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	raw, err := r.rawBytes(name)
	if err != nil {
		return nil, err
	}
	m, err := marioh.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.cache[name]; ok { // another goroutine decoded it first
		r.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).model, nil
	}
	if _, ok := r.saved[name]; ok { // don't re-cache a concurrent delete
		r.cacheLocked(name, m, int64(len(raw)))
	}
	return m, nil
}

// cacheLocked inserts (or refreshes) a cache entry, evicting the least
// recently used one past capacity and keeping the budget's models pool in
// step; callers hold r.mu.
func (r *Registry) cacheLocked(name string, m *marioh.Model, size int64) {
	if el, ok := r.cache[name]; ok {
		e := el.Value.(*cacheEntry)
		if r.budget != nil {
			r.budget.Charge(budgetPoolModels, size-e.size)
		}
		e.model, e.size = m, size
		r.lru.MoveToFront(el)
		return
	}
	r.cache[name] = r.lru.PushFront(&cacheEntry{name: name, model: m, size: size})
	if r.budget != nil {
		r.budget.Charge(budgetPoolModels, size)
	}
	for r.lru.Len() > r.cap {
		last := r.lru.Back()
		r.lru.Remove(last)
		e := last.Value.(*cacheEntry)
		delete(r.cache, e.name)
		if r.budget != nil {
			r.budget.Charge(budgetPoolModels, -e.size)
		}
	}
}

// Delete removes a stored model; the file removal runs outside the lock.
func (r *Registry) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	if _, ok := r.saved[name]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	delete(r.saved, name)
	delete(r.raw, name)
	delete(r.meta, name)
	delete(r.hashes, name)
	if el, ok := r.cache[name]; ok {
		r.lru.Remove(el)
		delete(r.cache, name)
		if r.budget != nil {
			r.budget.Charge(budgetPoolModels, -el.Value.(*cacheEntry).size)
		}
	}
	r.mu.Unlock()
	if r.dir != "" {
		if err := os.Remove(r.path(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
	}
	return nil
}

// Len returns the number of stored models without touching disk or the
// cache (the healthz-friendly counterpart of List).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.saved)
}

// Info describes one stored model. Metadata recorded at Put time is
// served as-is; models discovered on disk at startup are decoded once —
// without touching the hot decoded-model LRU — and memoized.
func (r *Registry) Info(name string) (ModelInfo, error) {
	if err := validName(name); err != nil {
		return ModelInfo{}, err
	}
	r.mu.Lock()
	info, ok := r.meta[name]
	saved := r.saved[name]
	r.mu.Unlock()
	if ok {
		return info, nil
	}
	raw, err := r.rawBytes(name)
	if err != nil {
		return ModelInfo{}, err
	}
	m, err := marioh.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return ModelInfo{}, err
	}
	info = ModelInfo{
		Name:       name,
		Featurizer: m.Feat.Name(),
		Sizes:      append([]int(nil), m.Net.Sizes...),
		Bytes:      len(raw),
		Saved:      saved,
	}
	r.mu.Lock()
	// Re-check the name still exists (a concurrent Delete wins).
	if _, ok := r.saved[name]; ok {
		r.meta[name] = info
	}
	r.mu.Unlock()
	return info, nil
}

// List describes every stored model, sorted by name. Entries that fail to
// load (e.g. a corrupted file dropped into the directory) are skipped.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	names := make([]string, 0, len(r.saved))
	for name := range r.saved {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)

	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		info, err := r.Info(name)
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	return out
}
