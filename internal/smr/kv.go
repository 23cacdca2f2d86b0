package smr

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/wire"
)

// KV command opcodes.
const (
	// OpSet stores a key/value pair.
	OpSet uint8 = 1
	// OpDel removes a key.
	OpDel uint8 = 2
)

// KVCommand is a decoded key-value store command. Client and Seq make the
// encoded command unique, as the SMR layer requires.
type KVCommand struct {
	Op     uint8
	Client string
	Seq    uint64
	Key    string
	Value  string
}

// EncodeKV serializes a key-value command into an SMR command.
func EncodeKV(c KVCommand) Command {
	w := wire.NewWriter(32 + len(c.Key) + len(c.Value))
	w.Uint8(c.Op)
	w.BytesField([]byte(c.Client))
	w.Uvarint(c.Seq)
	w.BytesField([]byte(c.Key))
	w.BytesField([]byte(c.Value))
	return Command(w.Bytes())
}

// DecodeKV parses an SMR command produced by EncodeKV.
func DecodeKV(cmd Command) (KVCommand, error) {
	r := wire.NewReader(cmd)
	var c KVCommand
	c.Op = r.Uint8()
	c.Client = string(r.BytesField())
	c.Seq = r.Uvarint()
	c.Key = string(r.BytesField())
	c.Value = string(r.BytesField())
	if err := r.Finish(); err != nil {
		return KVCommand{}, fmt.Errorf("kv decode: %w", err)
	}
	if c.Op != OpSet && c.Op != OpDel {
		return KVCommand{}, fmt.Errorf("kv decode: unknown op %d", c.Op)
	}
	return c, nil
}

// ShardOf returns the consensus group a key belongs to when the keyspace is
// hash-partitioned across shards groups. Every router — replica-side Get
// dispatch, shard-aware clients — must use this one function, or a key's
// reads and writes could land in different groups. shards must be positive
// (constructors validate it).
func ShardOf(key string, shards int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64() % uint64(shards)
}

// KVStore is a replicated key-value map: the App of the kvstore example and
// the SMR benchmarks. Reads are served locally; writes go through the log.
type KVStore struct {
	mu      sync.RWMutex
	data    map[string]string
	applied uint64
}

var _ App = (*KVStore)(nil)

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{data: make(map[string]string)}
}

// Apply implements App. The result — echoed value for a set, the removed
// value for a delete — is a deterministic function of state and command, as
// the reply cache requires.
func (kv *KVStore) Apply(slot uint64, cmd Command) []byte {
	c, err := DecodeKV(cmd)
	if err != nil {
		return nil // unknown commands are ignored, not fatal
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.applied++
	_ = slot
	switch c.Op {
	case OpSet:
		kv.data[c.Key] = c.Value
		return []byte(c.Value)
	case OpDel:
		prev := kv.data[c.Key]
		delete(kv.data, c.Key)
		return []byte(prev)
	}
	return nil
}

// Get returns the value for key.
func (kv *KVStore) Get(key string) (string, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	return v, ok
}

// Len returns the number of keys.
func (kv *KVStore) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.data)
}

// AppliedOps returns the number of commands applied.
func (kv *KVStore) AppliedOps() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.applied
}

// Snapshot implements App. Keys are emitted in sorted order so that
// replicas with identical logical state produce byte-identical snapshots, as
// checkpoint certification requires.
func (kv *KVStore) Snapshot() []byte {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	keys := make([]string, 0, len(kv.data))
	size := 16
	for k, v := range kv.data {
		keys = append(keys, k)
		size += len(k) + len(v) + 10
	}
	sort.Strings(keys)
	w := wire.NewWriter(size)
	w.Uvarint(kv.applied)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.BytesField([]byte(k))
		w.BytesField([]byte(kv.data[k]))
	}
	return w.Bytes()
}

// Restore implements App, replacing the store contents.
func (kv *KVStore) Restore(data []byte) error {
	r := wire.NewReader(data)
	applied := r.Uvarint()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("kv snapshot: %w", err)
	}
	if n > uint64(r.Remaining()) {
		return fmt.Errorf("kv snapshot: %w", wire.ErrOverflow)
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := string(r.BytesField())
		v := string(r.BytesField())
		m[k] = v
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("kv snapshot: %w", err)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data = m
	kv.applied = applied
	return nil
}
