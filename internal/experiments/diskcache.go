package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// cacheVersion tags every disk-cache key. Bump it whenever a change to
// the simulator, workloads or methodology can alter any cached number:
// stale entries then miss by construction (the version is part of the
// hashed key) and are recomputed, so a cache directory can never leak
// results from an older code generation into a newer binary's output.
const cacheVersion = "mtl-cache-v3" // v3: baseline entries became static-MTL entries keyed by K

// DiskCache is a content-addressed persistent result store. Each entry
// is one JSON file named by the SHA-256 of its canonical key encoding;
// the file embeds the full key so a hit is served only when the stored
// key matches the request byte for byte — hash collisions, truncated
// writes and entries from incompatible key layouts all read as misses
// and are dropped. Writes go through a temp file and an atomic rename,
// so any number of processes (mtlbench -j fan-outs included) can share
// one directory: readers never observe a partial file, and concurrent
// writers of the same key race harmlessly to identical content.
//
// Everything cached here is deterministic in its key (seeded runs,
// calibrations, whole tables), so the cache can only remove repeated
// work, never change a reported number.
type DiskCache struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64 // corrupt or key-mismatched entries dropped
	putErrs atomic.Uint64
}

// OpenDiskCache opens (creating if needed) a cache directory. The
// directory must be usable: a path that exists but is not a directory,
// or one this process cannot create files in, is rejected with an
// error that names the path and the reason.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: cache dir is empty")
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("experiments: cache dir %s exists but is not a directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: cannot create cache dir: %w", err)
	}
	// Probe writability now so a read-only directory fails at startup
	// with a clear message instead of at the first Put hours into a run.
	probe, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: cache dir %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return &DiskCache{dir: dir}, nil
}

// Dir reports the cache's directory.
func (c *DiskCache) Dir() string { return c.dir }

// Stats reports (hits, misses, evicted) counts for this process.
// Evicted counts corrupt or stale entries that were dropped; every
// eviction is also a miss.
func (c *DiskCache) Stats() (hits, misses, evicted uint64) {
	return c.hits.Load(), c.misses.Load(), c.evicted.Load()
}

// envelope is the on-disk entry shape. The key is stored verbatim so
// Get can verify it instead of trusting the filename hash.
type envelope struct {
	Key   json.RawMessage `json:"key"`
	Value json.RawMessage `json:"value"`
}

// path maps a canonical key encoding to its entry file.
func (c *DiskCache) path(keyJSON []byte) string {
	sum := sha256.Sum256(keyJSON)
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get looks the key up and, on a hit, unmarshals the stored value into
// value (which must be a pointer). Unreadable, corrupt, or
// key-mismatched entries are removed and reported as misses.
func (c *DiskCache) Get(key, value any) bool {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		c.misses.Add(1)
		return false
	}
	path := c.path(keyJSON)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return false
	}
	var env envelope
	if json.Unmarshal(data, &env) != nil || !bytes.Equal(env.Key, keyJSON) {
		c.evict(path)
		return false
	}
	if json.Unmarshal(env.Value, value) != nil {
		c.evict(path)
		return false
	}
	c.hits.Add(1)
	return true
}

// evict drops an unusable entry and accounts it as a miss.
func (c *DiskCache) evict(path string) {
	os.Remove(path)
	c.evicted.Add(1)
	c.misses.Add(1)
}

// Put stores value under key, replacing any previous entry. The write
// is atomic (temp file + rename), so concurrent readers and writers of
// the same key are safe.
func (c *DiskCache) Put(key, value any) error {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return fmt.Errorf("experiments: cache key: %w", err)
	}
	valJSON, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("experiments: cache value: %w", err)
	}
	data, err := json.Marshal(envelope{Key: keyJSON, Value: valJSON})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("experiments: cache write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), c.path(keyJSON)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	return nil
}

// put is the best-effort internal write: a failed Put (disk full, dir
// deleted mid-run) must never fail an experiment that has already
// computed its result, so callers on the experiment path record the
// error and move on.
func (c *DiskCache) put(key, value any) {
	if err := c.Put(key, value); err != nil {
		c.putErrs.Add(1)
	}
}
