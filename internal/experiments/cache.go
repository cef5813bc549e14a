package experiments

import (
	"memthrottle/internal/mem"
	"memthrottle/internal/simsched"
)

// Disk-cache key shapes. Each embeds the code-version tag and a Kind
// discriminator, then every input the cached value depends on. The
// structs are flat exported-field values, so their canonical JSON
// encoding — which is what gets hashed and verified — is stable across
// processes and self-describing on disk.

// calDiskKey identifies one DRAM calibration.
type calDiskKey struct {
	Version        string
	Kind           string // "calibration"
	Cfg            mem.Config
	MaxK           int
	TasksPerStream int
	Footprint      int
}

// staticDiskKey identifies one static-MTL trimmed measurement; it is
// the persistent shape of staticKey.
type staticDiskKey struct {
	Version string
	Kind    string // "static"
	Prog    string // structural program fingerprint
	Cfg     simsched.Config
	Reps    int
	Keep    int
	K       int
}

// staticDiskValue is the cached static-MTL payload. simsched.Result
// round-trips exactly through JSON (all fields exported, float64
// numerics, Timeline nil on untraced runs), so a cached representative
// result renders identically to a freshly computed one.
type staticDiskValue struct {
	T   float64
	Rep simsched.Result
}

// tableDiskKey identifies one finished experiment artifact: the
// catalog ID plus any parameter overrides, and the full environment
// fingerprint the rows were computed under.
type tableDiskKey struct {
	Version string
	Kind    string // "table"
	ID      string
	Params  string // CLI overrides, "" for catalog defaults
	Env     envFingerprint
}

// envFingerprint captures every environment field a result depends on.
// A mismatch in any of them changes the hashed key, so a cache
// directory can serve -quick and full-methodology runs, or differently
// configured platforms, side by side without interference.
type envFingerprint struct {
	DRAM1      mem.Config
	DRAM2      mem.Config
	Reps       int
	Keep       int
	NoiseSigma float64
	W          int
}

// fingerprint summarises the environment for cache keys. Workers is
// deliberately absent: the fan-out never changes a result.
func (e Env) fingerprint() envFingerprint {
	return envFingerprint{
		DRAM1:      e.DRAM1,
		DRAM2:      e.DRAM2,
		Reps:       e.Reps,
		Keep:       e.Keep,
		NoiseSigma: e.NoiseSigma,
		W:          e.W,
	}
}

// calibrate resolves one DRAM calibration through the configured
// acceleration layers: disk cache first, then the process-wide memo,
// computing on a full miss.
func (e Env) calibrate(cfg mem.Config, maxK, tasksPerStream, footprint int) (mem.Calibration, error) {
	if e.disk == nil {
		return mem.CalibrateCached(cfg, maxK, tasksPerStream, footprint)
	}
	key := calDiskKey{
		Version:        cacheVersion,
		Kind:           "calibration",
		Cfg:            cfg,
		MaxK:           maxK,
		TasksPerStream: tasksPerStream,
		Footprint:      footprint,
	}
	var cal mem.Calibration
	if e.disk.Get(key, &cal) {
		return cal, nil
	}
	cal, err := mem.CalibrateCached(cfg, maxK, tasksPerStream, footprint)
	if err != nil {
		return mem.Calibration{}, err
	}
	e.disk.put(key, cal)
	return cal, nil
}

// RunCached resolves a whole experiment table through the disk cache:
// on a hit the experiment is skipped entirely. params must encode any
// override that changes run's output beyond (e, id) — an empty string
// means catalog defaults. Without a cache it simply runs.
//
// Elapsed is stored as computed by the experiment (always zero — see
// Table.Elapsed); callers stamp wall-clock after this returns, so a
// cached table renders byte-identically to a cold one up to the
// caller's own timing lines.
func (e Env) RunCached(id, params string, run func() (Table, error)) (Table, error) {
	if e.disk == nil {
		return run()
	}
	key := tableDiskKey{
		Version: cacheVersion,
		Kind:    "table",
		ID:      id,
		Params:  params,
		Env:     e.fingerprint(),
	}
	var t Table
	if e.disk.Get(key, &t) {
		return t, nil
	}
	t, err := run()
	if err != nil {
		return Table{}, err
	}
	e.disk.put(key, t)
	return t, nil
}

// Cache returns the environment's persistent cache, if any.
func (e Env) Cache() *DiskCache { return e.disk }
