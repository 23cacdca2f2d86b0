package smr

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/wire"
)

// A decided slot value is a batch of commands. Batching amortizes the two
// consensus rounds, and their signatures, over several client commands — the
// standard throughput optimization of replicated state machines, composing
// with pipelining (the other one): Config.MaxBatch controls how many pending
// commands one slot proposal packs (1 disables batching), and with
// Config.WindowSize > 1 the concurrent live slots each carry a disjoint chunk
// of the queue. The leader proposes a full batch at once and a partial one
// only while none of its proposals is in flight; otherwise the partial batch
// keeps filling until a slot decides (see fillWindowLocked).
//
// The batch encoding is canonical (count + length-prefixed commands), so a
// batch is also a valid unique consensus value.

// EncodeBatch serializes commands into one consensus value.
func EncodeBatch(cmds []Command) types.Value {
	size := 10
	for _, c := range cmds {
		size += len(c) + 5
	}
	w := wire.NewWriter(size)
	w.Uvarint(uint64(len(cmds)))
	for _, c := range cmds {
		w.BytesField(c)
	}
	return types.Value(w.Bytes())
}

// DecodeBatch parses a batch value. Malformed batches decide slots but
// apply nothing (a Byzantine leader can always propose garbage; it must not
// wedge the log). The commands are sub-slices of v, not copies: v is a
// decided value, which nobody writes, and a command that must outlive it or
// be written is the caller's to clone.
func DecodeBatch(v types.Value) ([]Command, error) {
	r := wire.NewOwnedReader(v)
	n := r.SliceLen()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cmds := make([]Command, 0, n)
	for i := 0; i < n; i++ {
		cmds = append(cmds, Command(r.BytesField()))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("smr batch: %w", err)
	}
	return cmds, nil
}
