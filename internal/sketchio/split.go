package sketchio

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"imdist/internal/core"
)

// Split errors.
var (
	// ErrAlreadySharded rejects splitting a sketch that is itself a shard:
	// re-splitting would produce lineage naming a fleet that never existed.
	ErrAlreadySharded = errors.New("sketchio: sketch is already a shard; split the original instead")
	// ErrTooManyShards rejects a split finer than the sketch's block
	// structure can honor.
	ErrTooManyShards = errors.New("sketchio: more shards than RR-set blocks")
)

// SplitSketch partitions the sketch at inPath into shards standalone
// sketch files, returning their paths (outPrefix.shard<i>-of-<shards>). The
// RR-set index space is cut along the batch engine's DefaultBatchShardSize
// block boundaries — the unit the packed kernel and the batch grid already
// use — with the blocks dealt out contiguously and as evenly as possible, so
// every shard server keeps the aligned fast paths of a locally-built sketch.
//
// Each output is a complete, independently loadable sketch over the same
// graph (same n, model and build seed) carrying shard lineage
// (index/count/fleet-total) in its header, so a coordinator can verify fleet
// assembly and reject duplicates, gaps or mixed splits. Because per-shard
// coverage counts are exact integers, summing them over the shards and
// dividing once by the fleet total reproduces the unsplit sketch's answers
// byte for byte.
//
// The input is opened through OpenMapped, so it is fully validated before
// any output is written. A shard's member list for vertex v is the slice of
// v's list that falls in the shard's set range, found by binary search, with
// the ids rebased to start at 0. Outputs are written atomically (temp file +
// rename).
func SplitSketch(inPath, outPrefix string, shards int) ([]string, error) {
	return splitSketch(inPath, outPrefix, shards, core.DefaultBatchShardSize)
}

// splitSketch is SplitSketch with an explicit block size, so tests can
// exercise multi-shard splits on small RR pools.
func splitSketch(inPath, outPrefix string, shards, blockSize int) ([]string, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sketchio: shard count %d < 1", shards)
	}
	if blockSize < 1 {
		blockSize = core.DefaultBatchShardSize
	}
	in, err := OpenMapped(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	o := in.Oracle()
	if o.ShardLineage().Sharded() {
		return nil, ErrAlreadySharded
	}
	numSets := o.NumSets()
	numBlocks := (numSets + blockSize - 1) / blockSize
	if shards > numBlocks {
		return nil, fmt.Errorf("%w: %d RR sets form %d blocks of %d, cannot split into %d",
			ErrTooManyShards, numSets, numBlocks, blockSize, shards)
	}

	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		setLo := i * numBlocks / shards * blockSize
		setHi := min((i+1)*numBlocks/shards*blockSize, numSets)
		path := fmt.Sprintf("%s.shard%d-of-%d", outPrefix, i, shards)
		err := writeShard(o, path, setLo, setHi, core.ShardLineage{Index: i, Count: shards, TotalSets: numSets})
		if err != nil {
			// Best-effort cleanup of shards already renamed into place: a
			// partial fleet must not look complete.
			for _, p := range paths[:i] {
				_ = os.Remove(p)
			}
			return nil, err
		}
		paths[i] = path
	}
	return paths, nil
}

// writeShard writes the sketch of o's RR sets [setLo, setHi) to path,
// renumbered from 0, under the given lineage.
func writeShard(o *core.Oracle, path string, setLo, setHi int, lineage core.ShardLineage) error {
	offsets, entries := o.MemberIndex()
	n := o.NumVertices()
	cut := func(v int) []int32 {
		list := entries[offsets[v]:offsets[v+1]]
		lo, _ := slices.BinarySearch(list, int32(setLo))
		hi, _ := slices.BinarySearch(list, int32(setHi))
		return list[lo:hi]
	}
	shardOffsets := make([]uint64, n+1)
	for v := range n {
		shardOffsets[v+1] = shardOffsets[v] + uint64(len(cut(v)))
	}
	shardEntries := make([]int32, 0, shardOffsets[n])
	for v := range n {
		for _, id := range cut(v) {
			shardEntries = append(shardEntries, id-int32(setLo))
		}
	}
	shard, err := core.NewOracleFromMemberIndex(n, o.Model(), o.BuildSeed(), setHi-setLo, shardOffsets, shardEntries)
	if err != nil {
		return err
	}
	if err := shard.SetShardLineage(lineage); err != nil {
		return err
	}
	return WriteFile(path, shard)
}
