package fleet

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/hdc/model"
	"repro/internal/substrate"
)

// Node API wire documents. The node side lives in internal/serve
// (registered when serve.Config.NodeAPI is set); the coordinator side
// is this package's nodeClient. []byte fields travel as base64 inside
// JSON; float64 fields round-trip bit-exactly through encoding/json
// (Go emits the shortest representation that re-parses to the same
// value), which cross-transport bit-identity depends on.

// ScoreRequest asks a node to encode and score a batch of raw feature
// vectors against its local deployed model.
type ScoreRequest struct {
	Xs          [][]float64 `json:"xs"`
	Temperature float64     `json:"temperature"`
}

// ScoreResponse carries the node's per-query answers, index-aligned
// with the request.
type ScoreResponse struct {
	Classes []int     `json:"classes"`
	Confs   []float64 `json:"confs"`
}

// Summary is a replica's per-class chunk-hash digest of its deployed
// class hypervectors: Hashes[class][chunk] is ChunkHash over the bits
// ChunkBounds assigns to that chunk.
type Summary struct {
	Classes int      `json:"classes"`
	Dims    int      `json:"dims"`
	Chunks  int      `json:"chunks"`
	Hashes  [][]Hash `json:"hashes"`
}

// Hash is a chunk hash. It travels as %016x hex text: hash values do
// not survive JSON as numbers (float64 mantissas top out at 2^53).
type Hash uint64

// MarshalText renders the hash as 16 hex digits.
func (h Hash) MarshalText() ([]byte, error) { return []byte(fmt.Sprintf("%016x", uint64(h))), nil }

// UnmarshalText parses the hex form MarshalText writes.
func (h *Hash) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil {
		return fmt.Errorf("fleet: chunk hash %q: %w", b, err)
	}
	*h = Hash(v)
	return nil
}

// ChunkRef names one chunk of one class hypervector by its bit range.
type ChunkRef struct {
	Class int `json:"class"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
}

// ChunkData is a chunk's bits in transit: Bits is the
// bitvec.Vector.MarshalBinary encoding of the Hi-Lo bit slice.
type ChunkData struct {
	Class int    `json:"class"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Bits  []byte `json:"bits"`
}

// ChunksRequest fetches the named chunks from a node.
type ChunksRequest struct {
	Chunks []ChunkRef `json:"chunks"`
}

// ChunksResponse returns them, index-aligned with the request.
type ChunksResponse struct {
	Chunks []ChunkData `json:"chunks"`
}

// RepairRequest pushes majority chunks onto a node; the node
// overwrites each named range and bills the writes to its substrate
// exactly like in-process anti-entropy repair.
type RepairRequest struct {
	Chunks []ChunkData `json:"chunks"`
}

// RepairResponse acknowledges a repair push.
type RepairResponse struct {
	Applied int `json:"applied"`
	Bits    int `json:"bits"`
}

// ChunkBounds returns the bit range [lo, hi) of chunk k when dims bits
// are split into `chunks` near-equal pieces. Every replica and the
// coordinator must partition identically, or "the same chunk" would
// mean different bits on each side of the wire.
func ChunkBounds(dims, chunks, k int) (lo, hi int) {
	return k * dims / chunks, (k + 1) * dims / chunks
}

// ChunkHash digests bits [lo, hi) of v for divergence summaries:
// 64-bit FNV-1a over the little-endian bytes of the slice's packed
// words, seeded with the slice width so ranges of different lengths
// never collide trivially — the same value as hash/fnv's New64a over
// that byte stream, computed inline because summaries hash every chunk
// of every class on every sweep and must not allocate per chunk.
// Folding in a byte at a time matters: the multiply only carries
// differences upward, so a whole-word step would leave a flip in a
// word's top bit confined to the hash's top bit, where a second such
// flip cancels it. Two chunks with equal hashes are treated as
// identical by the anti-entropy protocol.
func ChunkHash(v *bitvec.Vector, lo, hi int) Hash {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(w uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ ((w >> i) & 0xff)) * prime
		}
	}
	mix(uint64(hi - lo))
	// The slice's packed words, shifted down from lo in place of
	// v.Slice(lo, hi).Words().
	words := v.Words()
	for b := lo; b < hi; b += 64 {
		i, s := b/64, b%64
		w := words[i] >> s
		if s != 0 && i+1 < len(words) {
			w |= words[i+1] << (64 - s)
		}
		if hi-b < 64 {
			w &= 1<<(hi-b) - 1
		}
		mix(w)
	}
	return Hash(h)
}

// SummaryOf digests a published model image into chunks per class.
// Callers validate chunks against the image's dimensionality.
func SummaryOf(img *model.Frozen, chunks int) Summary {
	dims := img.Dimensions()
	sum := Summary{Classes: img.Classes(), Dims: dims, Chunks: chunks, Hashes: make([][]Hash, img.Classes())}
	for c := range sum.Hashes {
		row := make([]Hash, chunks)
		cv := img.ClassVector(c)
		for k := range row {
			lo, hi := ChunkBounds(dims, chunks, k)
			row[k] = ChunkHash(cv, lo, hi)
		}
		sum.Hashes[c] = row
	}
	return sum
}

// RepairChunks writes each image over its range of m's class vectors,
// bills the writes to sub (nil for none) like recovery writes, and
// publishes the touched classes as a new epoch on chain. Callers hold
// m's writer lock and have validated the refs and image lengths.
func RepairChunks(m *model.Model, refs []ChunkRef, images []*bitvec.Vector, sub substrate.FaultProcess, chain *model.EpochChain) {
	var dirty []int
	for i, ref := range refs {
		m.ClassVector(ref.Class).OverwriteSlice(images[i], ref.Lo)
		if !slices.Contains(dirty, ref.Class) {
			dirty = append(dirty, ref.Class)
		}
	}
	if sub != nil {
		sub.NoteWrites(BitsIn(refs))
	}
	chain.Publish(m, dirty)
}

// Reimage restores sys from a donor image and publishes every class as
// a new epoch on chain. The full rewrite is substrate traffic: every
// bit is billed to sub (nil for none) and counted as a refresh — decayed
// cells recharge, stuck cells stay stuck, so wear survives re-imaging
// like the watchdog's rollback. Callers hold sys's writer lock.
func Reimage(sys, donor *core.System, sub substrate.FaultProcess, chain *model.EpochChain) {
	sys.Restore(donor.Snapshot())
	if sub != nil {
		sub.NoteWrites(sys.Classes() * sys.Dimensions())
		sub.Refresh()
	}
	chain.Publish(sys.Model(), nil)
}

// BitsIn is the total width of the named chunks — the write traffic a
// repair bills to a substrate.
func BitsIn(refs []ChunkRef) int {
	n := 0
	for _, ref := range refs {
		n += ref.Hi - ref.Lo
	}
	return n
}

// JournalVerifyResponse is the /journal/verify wire document, shared
// by serve nodes and the coordinator. Enabled is false when the
// process runs without a journal; OK means the journal's backing file
// re-verified end to end AND matches the live chain tip (so on-disk
// tampering behind the process — including suffix truncation — is
// caught); Report carries the replayed seal inventory.
type JournalVerifyResponse struct {
	Enabled bool          `json:"enabled"`
	OK      bool          `json:"ok"`
	Error   string        `json:"error,omitempty"`
	Live    JournalStats  `json:"live"`
	Report  *VerifyReport `json:"report,omitempty"`
}

// VerifyJournalDoc builds the /journal/verify response for a journal
// (nil journals report disabled). It is the single implementation
// behind the serve and coordinator endpoints and the coordinator's
// donor-trust gate.
func VerifyJournalDoc(j *Journal) JournalVerifyResponse {
	if j == nil {
		return JournalVerifyResponse{}
	}
	out := JournalVerifyResponse{Enabled: true, Live: j.Stats()}
	rep, err := j.VerifyFile()
	out.Report = &rep
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.OK = true
	return out
}
