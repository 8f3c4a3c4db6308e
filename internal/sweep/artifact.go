package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
)

// Artifact layout inside Options.Dir:
//
//	manifest.json      version + normalised spec + point IDs, written
//	                   before any point runs; a resume must match it
//	                   byte for byte.
//	points/<id>.json   one Result per completed point, written
//	                   atomically as each point finishes.
//	results.ndjson     all point records in expansion order, written on
//	                   completion by concatenating the point files — so
//	                   a resumed run reproduces an uninterrupted run's
//	                   bytes exactly.
const (
	manifestName = "manifest.json"
	pointsDir    = "points"
	resultsName  = "results.ndjson"

	// manifestVersion guards the artifact layout; bump on incompatible
	// changes so stale dirs fail loudly instead of resuming wrongly.
	// v2: points carry graph_seed (graphs keyed on topology, not point).
	// v3: pluggable metrics — specs carry a metric set, records hold
	// per-metric summaries plus optional trajectory blocks.
	// v4: cobra and bips draw in the round kernel's per-(round, chunk)
	// stream layout, so v3 records came from different draws.
	// v5: λ_max comes from a Lanczos run with a measured residual stop,
	// so the lambda of v4 measure_lambda records differs.
	// v6: bips lists its candidates in ascending vertex order, so its
	// draws moved, and digest quantiles are clamped into [min, max].
	manifestVersion = 6
)

// Hash returns a short stable fingerprint of the normalised spec plus
// the artifact layout version: equal exactly when two specs expand to
// the same points and their completed artifacts are byte-identical.
// The serving layer uses it as the ETag on completed-result reads, so
// identical sweep requests from many clients collapse onto one cached
// artifact read (and 304 on revalidation) the way the graph cache
// collapses graph builds.
func (s Spec) Hash() string {
	blob, err := json.Marshal(s.withDefaults())
	if err != nil {
		// Spec holds only plain marshallable fields; this cannot fail.
		panic(fmt.Sprintf("sweep: encoding spec for hash: %v", err))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d:", manifestVersion)
	h.Write(blob)
	return strconv.FormatUint(h.Sum64(), 16)
}

// manifest pins a sweep to its artifact directory.
type manifest struct {
	Version int      `json:"version"`
	Spec    Spec     `json:"spec"`
	Points  []string `json:"points"`
}

type artifacts struct {
	dir string
}

// openArtifacts prepares dir for the sweep: it creates the layout and
// writes the manifest, or — when a manifest already exists — verifies it
// matches so a resume cannot silently mix two different sweeps.
func openArtifacts(dir string, spec Spec, pts []Point, resume bool) (*artifacts, error) {
	if err := os.MkdirAll(filepath.Join(dir, pointsDir), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: creating artifact dir: %w", err)
	}
	ids := make([]string, len(pts))
	for i, pt := range pts {
		ids[i] = pt.ID
	}
	want, err := json.MarshalIndent(manifest{Version: manifestVersion, Spec: spec, Points: ids}, "", "  ")
	if err != nil {
		return nil, err
	}
	want = append(want, '\n')

	path := filepath.Join(dir, manifestName)
	existing, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !resume {
			return nil, fmt.Errorf("sweep: %s already holds a sweep manifest; pass resume to continue it or use a fresh dir", dir)
		}
		if !bytes.Equal(existing, want) {
			return nil, fmt.Errorf("sweep: manifest in %s does not match this spec; refusing to mix sweeps", dir)
		}
	case os.IsNotExist(err):
		if err := writeFileAtomic(path, want); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sweep: reading manifest: %w", err)
	}
	return &artifacts{dir: dir}, nil
}

func (a *artifacts) pointPath(id string) string {
	return filepath.Join(a.dir, pointsDir, id+".json")
}

// load returns the persisted Result for pt, if present. A record that
// fails to parse or names a different point is an error, not a silent
// recompute — delete the file to recompute the point.
func (a *artifacts) load(pt Point) (Result, bool, error) {
	path := a.pointPath(pt.ID)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Result{}, false, nil
	}
	if err != nil {
		return Result{}, false, fmt.Errorf("sweep: reading %s: %w", path, err)
	}
	var res Result
	if err := json.Unmarshal(blob, &res); err != nil {
		return Result{}, false, fmt.Errorf("sweep: corrupt point record %s (delete it to recompute): %w", path, err)
	}
	if res.ID != pt.ID || res.Index != pt.Index {
		return Result{}, false, fmt.Errorf("sweep: point record %s names %s[%d], expected %s[%d]",
			path, res.ID, res.Index, pt.ID, pt.Index)
	}
	if res.GraphSeed != pt.GraphSeed {
		return Result{}, false, fmt.Errorf("sweep: point record %s was computed with graph seed %d, expected %d (stale artifact layout? delete it to recompute)",
			path, res.GraphSeed, pt.GraphSeed)
	}
	if err := res.checkMetrics(pt.Metrics); err != nil {
		return Result{}, false, fmt.Errorf("sweep: point record %s: %w (delete it to recompute)", path, err)
	}
	res.Point.Metrics = pt.Metrics // not serialised; restore for in-memory consumers
	return res, true, nil
}

// save persists one completed point atomically.
func (a *artifacts) save(res Result) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encoding point %s: %w", res.ID, err)
	}
	return writeFileAtomic(a.pointPath(res.ID), append(blob, '\n'))
}

// finish writes results.ndjson by concatenating the point records in
// expansion order. Using the persisted bytes (rather than re-encoding
// in-memory results) guarantees a resumed run's final artifacts are
// byte-identical to an uninterrupted run's.
func (a *artifacts) finish(pts []Point) error {
	var buf bytes.Buffer
	for _, pt := range pts {
		blob, err := os.ReadFile(a.pointPath(pt.ID))
		if err != nil {
			return fmt.Errorf("sweep: assembling results: %w", err)
		}
		buf.Write(blob)
	}
	return writeFileAtomic(filepath.Join(a.dir, resultsName), buf.Bytes())
}

// writeFileAtomic writes via a temp file + rename, so readers (and
// resumes after a kill) never observe a partial record.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sweep: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: committing %s: %w", path, err)
	}
	return nil
}
