// Package store implements the wide-access Model & Feature Store of the
// paper's platform architecture (Fig. 1, §2.1): the component that
// receives model+feature bundles from accepted training pipelines and
// exposes them to other teams and to the serving infrastructure.
//
// The store sits in the *untrusted* domain of the threat model (§2.2):
// anything published here is considered released, which is exactly why
// Sage makes the process that produces bundles globally DP. Bundles
// therefore carry provenance — the pipeline, the privacy budget spent,
// the blocks used, and the validator's decision — so an auditor can
// reconcile every release against the stream's accounting.
package store

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Provenance records where a bundle came from.
type Provenance struct {
	// Pipeline is the producing pipeline's name.
	Pipeline string
	// Spent is the privacy budget the release consumed.
	Spent privacy.Budget
	// Blocks are the stream blocks the training read.
	Blocks []data.BlockID
	// Decision is the validator's verdict ("ACCEPT").
	Decision string
	// Quality is the DP quality estimate at release time.
	Quality float64
}

// ModelSpec is a serializable description of a trained model. Exactly
// one Kind is valid.
type ModelSpec struct {
	Kind string // "linear", "logistic", "linear-sgd", "mlp-reg", "mlp-clf"
	// Linear models.
	Weights []float64
	Bias    float64
	// SGD-parameterized models (logistic / linear-sgd / MLPs).
	Dim    int
	Hidden []int
	Params []float64
}

// Serialize converts a supported model into a spec. It returns an error
// for unknown model types.
func Serialize(m ml.Model) (ModelSpec, error) {
	switch v := m.(type) {
	case *ml.LinearModel:
		return ModelSpec{
			Kind:    "linear",
			Weights: append([]float64{}, v.Weights...),
			Bias:    v.Bias,
		}, nil
	case *ml.LogisticRegression:
		return ModelSpec{
			Kind: "logistic", Dim: v.Dim(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case *ml.SGDLinearRegression:
		return ModelSpec{
			Kind: "linear-sgd", Dim: v.Dim(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case *ml.MLP:
		kind := "mlp-reg"
		if v.Kind() == ml.BinaryClassification {
			kind = "mlp-clf"
		}
		return ModelSpec{
			Kind: kind, Dim: v.InputDim(), Hidden: v.Hidden(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case ml.ConstantModel:
		return ModelSpec{Kind: "constant", Bias: v.Value}, nil
	default:
		return ModelSpec{}, fmt.Errorf("store: unsupported model type %T", m)
	}
}

// InputDim returns the feature-vector length the spec's model expects,
// or 0 when any length is acceptable (constant models). Serving uses it
// to reject malformed predict requests before they reach Predict.
func (s ModelSpec) InputDim() int {
	switch s.Kind {
	case "linear":
		return len(s.Weights)
	case "logistic", "linear-sgd", "mlp-reg", "mlp-clf":
		return s.Dim
	default:
		return 0
	}
}

// Instantiate reconstructs a usable model from the spec.
func (s ModelSpec) Instantiate() (ml.Model, error) {
	switch s.Kind {
	case "linear":
		return &ml.LinearModel{
			Weights: append([]float64{}, s.Weights...),
			Bias:    s.Bias,
		}, nil
	case "constant":
		return ml.ConstantModel{Value: s.Bias}, nil
	case "logistic":
		m := ml.NewLogisticRegression(s.Dim)
		if len(s.Params) != len(m.Params()) {
			return nil, fmt.Errorf("store: logistic params length %d, want %d", len(s.Params), len(m.Params()))
		}
		copy(m.Params(), s.Params)
		return m, nil
	case "linear-sgd":
		m := ml.NewSGDLinearRegression(s.Dim)
		if len(s.Params) != len(m.Params()) {
			return nil, fmt.Errorf("store: linear-sgd params length %d, want %d", len(s.Params), len(m.Params()))
		}
		copy(m.Params(), s.Params)
		return m, nil
	case "mlp-reg", "mlp-clf":
		kind := ml.Regression
		if s.Kind == "mlp-clf" {
			kind = ml.BinaryClassification
		}
		m := ml.NewMLP(kind, s.Dim, s.Hidden, rng.New(0))
		if len(s.Params) != len(m.Params()) {
			return nil, fmt.Errorf("store: MLP params length %d, want %d", len(s.Params), len(m.Params()))
		}
		copy(m.Params(), s.Params)
		return m, nil
	default:
		return nil, fmt.Errorf("store: unknown model kind %q", s.Kind)
	}
}

// Bundle is one released model+features artifact (§2.1: the model is
// "bundled with its feature transformation operators and pushed into
// serving").
type Bundle struct {
	Name    string
	Version int
	Model   ModelSpec
	// Features carries released aggregate features by name, e.g.
	// Listing 1's per-hour speed table.
	Features   map[string][]float64
	Provenance Provenance
}

// Encode returns CanonicalBytes. It survives only because perfbench
// calls it; new code calls CanonicalBytes.
func (b *Bundle) Encode() ([]byte, error) { return b.CanonicalBytes(), nil }

// CanonicalBytes returns the bundle's canonical serialization
// (internal/core's audit encoding: fixed field order, sorted feature
// keys, IEEE-754 bit patterns). It is the bundle's only encoding. Two
// bundles are the same release iff their canonical bytes are equal, and
// the serialization is invertible (DecodeCanonicalBundle), so one byte
// string serves every role: the POST /push body a replica decodes, the
// preimage of the digest it verifies, the payload the write-ahead log
// journals for each publish (the WAL record's checksum therefore covers
// exactly the bytes the push digest covers), and the record replay
// decodes during crash recovery.
func (b *Bundle) CanonicalBytes() []byte {
	buf := core.AppendString(nil, b.Name)
	buf = core.AppendUint(buf, uint64(b.Version))
	buf = core.AppendString(buf, b.Model.Kind)
	buf = core.AppendFloats(buf, b.Model.Weights)
	buf = core.AppendFloat(buf, b.Model.Bias)
	buf = core.AppendUint(buf, uint64(b.Model.Dim))
	buf = core.AppendUint(buf, uint64(len(b.Model.Hidden)))
	for _, h := range b.Model.Hidden {
		buf = core.AppendUint(buf, uint64(h))
	}
	buf = core.AppendFloats(buf, b.Model.Params)
	keys := b.FeatureKeys()
	buf = core.AppendUint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = core.AppendString(buf, k)
		buf = core.AppendFloats(buf, b.Features[k])
	}
	p := b.Provenance
	return core.AppendProvenance(buf, p.Pipeline, p.Spent, p.Blocks, p.Decision, p.Quality)
}

// DecodeCanonicalBundle inverts CanonicalBytes. Replicas decode push
// bodies with it and the write-ahead log's recovery path rebuilds
// released bundles from journal records with it. It is strict: it
// accepts only bytes CanonicalBytes produces, so every accepted input
// re-encodes to itself and one release has exactly one byte form.
func DecodeCanonicalBundle(raw []byte) (*Bundle, error) {
	c := core.NewCursor(raw)
	var b Bundle
	b.Name = c.String()
	b.Version = int(c.Uint())
	b.Model.Kind = c.String()
	b.Model.Weights = c.Floats()
	b.Model.Bias = c.Float()
	b.Model.Dim = int(c.Uint())
	nHidden := c.Uint()
	if c.Err() == nil && nHidden > 0 {
		// Bound before allocating (divide — int(nHidden)*8 on a damaged
		// length field overflows).
		if nHidden > uint64(c.Remaining())/8 {
			return nil, fmt.Errorf("store: canonical bundle: truncated hidden sizes")
		}
		b.Model.Hidden = make([]int, nHidden)
		for i := range b.Model.Hidden {
			b.Model.Hidden[i] = int(c.Uint())
		}
	}
	b.Model.Params = c.Floats()
	nFeatures := c.Uint()
	if c.Err() == nil && nFeatures > 0 {
		// Each feature needs at least a length-prefixed key and table,
		// so the count cannot exceed the remaining bytes / 16; a
		// damaged count must not size the map allocation.
		if nFeatures > uint64(c.Remaining())/16 {
			return nil, fmt.Errorf("store: canonical bundle: feature count %d exceeds payload", nFeatures)
		}
		b.Features = make(map[string][]float64, nFeatures)
		prev := ""
		for i := uint64(0); i < nFeatures && c.Err() == nil; i++ {
			k := c.String()
			// The encoder writes keys sorted; an unsorted or repeated
			// key is a second byte form of some release (a repeat would
			// also silently drop a table).
			if i > 0 && k <= prev && c.Err() == nil {
				return nil, fmt.Errorf("store: canonical bundle: feature key %q not after %q", k, prev)
			}
			prev = k
			b.Features[k] = c.Floats()
		}
	}
	b.Provenance.Pipeline = c.String()
	b.Provenance.Spent.Epsilon = c.Float()
	b.Provenance.Spent.Delta = c.Float()
	b.Provenance.Blocks = c.BlockIDs()
	b.Provenance.Decision = c.String()
	b.Provenance.Quality = c.Float()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("store: canonical bundle: %w", err)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("store: canonical bundle: %d trailing bytes", c.Remaining())
	}
	return &b, nil
}

// Digest returns a content digest over the bundle's canonical
// serialization, which is also the push body. Replica push uses the
// digest for idempotency: a re-push of an already-applied (name,
// version) is accepted iff the digests match, so a divergent bundle can
// never silently overwrite a release. Because the WAL journals exactly
// CanonicalBytes, a journaled release's digest is the digest replicas
// verified.
func (b *Bundle) Digest() [sha256.Size]byte {
	return sha256.Sum256(b.CanonicalBytes())
}

// Store is the in-memory wide-access model & feature store. It is safe
// for concurrent use.
type Store struct {
	mu      sync.RWMutex
	bundles map[string][]*Bundle // name → versions (ascending)
	// gen counts mutations. Serving caches key their pre-encoded
	// responses on it: a response computed at generation g is valid
	// until the store changes, at which point g stops matching and the
	// entry is rebuilt on next use.
	gen uint64
	// journal, when set (SetJournal), receives every new release's
	// canonical bytes before the release is applied or acknowledged —
	// the store half of the durable platform core.
	journal func(canonical []byte) error
}

// SetJournal installs the write-ahead journal: every release that
// enters the store (Publish or a first-time Apply) has its canonical
// bytes journaled, under the store lock, before the release is visible
// or acknowledged. Install it *after* replaying recovered releases —
// recovery applies them through the same public methods, and a set
// journal would re-journal them. A journal failure fails the mutation:
// Apply returns the error; Publish, which has no error return, panics —
// a durable store that cannot journal must stop taking releases rather
// than diverge from its log.
//
//sage:nojournal installs the journal itself; runs before any journal exists
func (s *Store) SetJournal(journal func(canonical []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = journal
}

// SnapshotBundles returns every release's canonical bytes, names
// sorted, versions ascending — the record set a WAL compaction replaces
// the store's journal history with.
func (s *Store) SnapshotBundles() [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.bundles))
	for name := range s.bundles {
		names = append(names, name)
	}
	sort.Strings(names)
	var out [][]byte
	for _, name := range names {
		for _, b := range s.bundles[name] {
			out = append(out, b.CanonicalBytes())
		}
	}
	return out
}

// New returns an empty store.
func New() *Store {
	return &Store{bundles: make(map[string][]*Bundle)}
}

// deepCopy returns a bundle sharing no mutable memory with b: the
// feature map and its value slices, the model's parameter slices, and
// the provenance block list are all copied.
func (b Bundle) deepCopy() *Bundle {
	c := b
	c.Model.Weights = append([]float64(nil), b.Model.Weights...)
	c.Model.Hidden = append([]int(nil), b.Model.Hidden...)
	c.Model.Params = append([]float64(nil), b.Model.Params...)
	c.Provenance.Blocks = append([]data.BlockID(nil), b.Provenance.Blocks...)
	if b.Features != nil {
		c.Features = make(map[string][]float64, len(b.Features))
		for k, v := range b.Features {
			c.Features[k] = append([]float64(nil), v...)
		}
	}
	return &c
}

// Publish adds a bundle under its name and assigns the next version
// (starting at 1). It returns the assigned version. The store keeps a
// deep copy: a published bundle is a *release* — immutable by the threat
// model (§2.2) — so later mutation of the caller's feature map or
// parameter slices must not rewrite what auditors and servers see.
// With a journal installed the release is journaled (canonical bytes,
// version included) before it becomes visible; a journal failure
// panics, since Publish cannot report it and must not acknowledge an
// unjournaled release.
//
//sage:journaled
func (s *Store) Publish(b Bundle) int {
	stored := b.deepCopy()
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.bundles[b.Name]
	stored.Version = len(versions) + 1
	if s.journal != nil {
		if err := s.journal(stored.CanonicalBytes()); err != nil {
			panic(fmt.Errorf("store: journal publish %s@v%d: %w", stored.Name, stored.Version, err))
		}
	}
	s.bundles[b.Name] = append(versions, stored)
	s.gen++
	return stored.Version
}

// Generation returns a counter that advances on every store mutation
// (Publish or Apply). Anything derived from store contents — the
// serving layer's pre-encoded responses — caches against it and
// invalidates on mismatch.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// VersionCount returns how many versions of name are published — the
// store's applied-version watermark for the replica push protocol.
func (s *Store) VersionCount(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bundles[name])
}

// VersionGapError reports an Apply whose bundle version would leave a
// hole in the version sequence. It carries the receiver's current
// watermark so the pusher knows where to resume.
type VersionGapError struct {
	Name      string
	Version   int // the version that was offered
	Watermark int // versions currently applied
}

func (e *VersionGapError) Error() string {
	return fmt.Sprintf("store: bundle %s@v%d leaves a gap: %d version(s) applied", e.Name, e.Version, e.Watermark)
}

// Apply inserts a bundle at its *declared* version — the receiving half
// of the replica push protocol, where versions are assigned by the
// publisher's store and must survive re-delivery. Semantics:
//
//   - Version == watermark+1: the bundle is appended (deep-copied, like
//     Publish) and Apply reports applied=true.
//   - Version <= watermark: idempotent re-push. Apply verifies the
//     offered bundle's digest against the applied one and reports
//     applied=false; a digest mismatch is an error — a release can
//     never be silently replaced.
//   - Version > watermark+1: *VersionGapError. The store refuses holes
//     so that "watermark = n" always means versions 1..n are present.
//
// A version of 0 (a bundle that never went through Publish) is
// rejected.
//
//sage:journaled
func (s *Store) Apply(b Bundle) (applied bool, err error) {
	if b.Version < 1 {
		return false, fmt.Errorf("store: apply %s: bundle has no version (got %d)", b.Name, b.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.bundles[b.Name]
	switch {
	case b.Version <= len(versions):
		existing := versions[b.Version-1]
		if existing.Digest() != b.Digest() {
			return false, fmt.Errorf("store: apply %s@v%d: digest mismatch with already-applied release", b.Name, b.Version)
		}
		return false, nil
	case b.Version == len(versions)+1:
		stored := b.deepCopy()
		if s.journal != nil {
			if err := s.journal(stored.CanonicalBytes()); err != nil {
				return false, fmt.Errorf("store: journal apply %s@v%d: %w", stored.Name, stored.Version, err)
			}
		}
		s.bundles[b.Name] = append(versions, stored)
		s.gen++
		return true, nil
	default:
		return false, &VersionGapError{Name: b.Name, Version: b.Version, Watermark: len(versions)}
	}
}

// Watermarks returns every name's applied version count, sorted by
// name — the replica status a publisher reconciles against.
func (s *Store) Watermarks() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int, len(s.bundles))
	for name, versions := range s.bundles {
		out[name] = len(versions)
	}
	return out
}

// FeatureKeys returns the bundle's released aggregate table names,
// sorted.
func (b *Bundle) FeatureKeys() []string {
	out := make([]string, 0, len(b.Features))
	for k := range b.Features {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Latest returns the most recent version of the named bundle.
func (s *Store) Latest(name string) (*Bundle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := s.bundles[name]
	if len(versions) == 0 {
		return nil, false
	}
	return versions[len(versions)-1], true
}

// Get returns a specific version.
func (s *Store) Get(name string, version int) (*Bundle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := s.bundles[name]
	if version < 1 || version > len(versions) {
		return nil, false
	}
	return versions[version-1], true
}

// List returns all bundle names, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.bundles))
	for name := range s.bundles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalSpent sums the budget recorded across all published bundles of a
// name — an auditor's view of how much privacy a model line has cost.
// Note this is a *per-release* tally; the binding stream-wide guarantee
// lives in core.AccessControl's per-block accounting.
func (s *Store) TotalSpent(name string) privacy.Budget {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := privacy.Zero
	for _, b := range s.bundles[name] {
		total = total.Add(b.Provenance.Spent)
	}
	return total
}
