// Resumable checkpoints for the exhaustive sweep.
//
// A checkpoint records only *completed* shards: per-shard results are
// folded into the persisted counters exactly when the shard's bitmap
// bit is set, and a shard interrupted mid-flight leaves no trace, so a
// resumed sweep re-runs it from scratch and the final accounting is
// identical to an uninterrupted run's. Files are written via a
// temporary sibling plus os.Rename, so a crash mid-write leaves the
// previous checkpoint intact.
package exhaust

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointVersion guards the on-disk schema. Version 2 added the
// Bracketed count; a version 1 file is rejected, since its Filtered and
// Escalated counts cover inputs a version 2 sweep would bracket.
const checkpointVersion = 2

// Mismatch is one refuted input: the library's result disagreed with
// the arbitrary-precision oracle (NaN-vs-NaN and +0-vs--0 agree, as in
// internal/checks).
type Mismatch struct {
	Bits uint32 `json:"bits"` // input float32 bit pattern
	Got  uint32 `json:"got"`  // library result bits
	Want uint32 `json:"want"` // oracle result bits
}

// checkpoint is the serialized sweep state. Config fields are stored so
// a resume against a different function, library, shard layout, or
// guard width is rejected instead of silently merging incompatible
// accounting.
type checkpoint struct {
	Version   int     `json:"version"`
	Func      string  `json:"func"`
	Lib       string  `json:"lib"`
	ShardBits int     `json:"shard_bits"`
	Limit     uint64  `json:"limit"`
	GuardUlps float64 `json:"guard_ulps"`

	// Done is the completed-shard bitmap (bit s of Done[s/8]).
	Done []byte `json:"done"`

	// Totals over completed shards only.
	Inputs     uint64 `json:"inputs"`
	NaNInputs  uint64 `json:"nan_inputs"`
	Filtered   uint64 `json:"filtered"`
	Escalated  uint64 `json:"escalated"`
	Bracketed  uint64 `json:"bracketed"`
	Mismatched uint64 `json:"mismatched"`

	// Mismatches holds up to maxMismatches entries; Mismatched is the
	// authoritative count when the log is truncated.
	Mismatches []Mismatch `json:"mismatches"`
}

// loadCheckpoint reads and validates a checkpoint against the sweep
// configuration it is about to seed.
func loadCheckpoint(path string, want checkpoint) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("exhaust: corrupt checkpoint %s: %w", path, err)
	}
	switch {
	case cp.Version != checkpointVersion:
		return nil, fmt.Errorf("exhaust: checkpoint %s has version %d, want %d", path, cp.Version, checkpointVersion)
	case cp.Func != want.Func || cp.Lib != want.Lib:
		return nil, fmt.Errorf("exhaust: checkpoint %s is for %s/%s, sweep is %s/%s",
			path, cp.Lib, cp.Func, want.Lib, want.Func)
	case cp.ShardBits != want.ShardBits || cp.Limit != want.Limit:
		return nil, fmt.Errorf("exhaust: checkpoint %s shard layout (bits=%d limit=%d) differs from sweep (bits=%d limit=%d)",
			path, cp.ShardBits, cp.Limit, want.ShardBits, want.Limit)
	case cp.GuardUlps != want.GuardUlps:
		return nil, fmt.Errorf("exhaust: checkpoint %s guard width %g differs from sweep %g",
			path, cp.GuardUlps, want.GuardUlps)
	case len(cp.Done) != len(want.Done):
		return nil, fmt.Errorf("exhaust: checkpoint %s bitmap length %d, want %d", path, len(cp.Done), len(want.Done))
	}
	return &cp, nil
}

// save atomically writes the checkpoint: marshal, write a temporary
// file in the destination directory, rename over the target.
func (cp *checkpoint) save(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// done reports whether shard s is marked complete.
func (cp *checkpoint) done(s uint64) bool {
	return cp.Done[s>>3]&(1<<(s&7)) != 0
}

// markDone sets shard s complete.
func (cp *checkpoint) markDone(s uint64) {
	cp.Done[s>>3] |= 1 << (s & 7)
}
