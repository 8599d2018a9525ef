package dds

import (
	"bytes"
	"iter"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// readView is a Service replica's keyspace, its only copy of the
// replicated map: bucketed copy-on-write maps swapped via atomic
// pointers, plus apply-progress stamps. Appliers (serialized by the
// ring's event loop, under s.mu) change it only through publish;
// readers load a bucket pointer and look up in an immutable map — no
// lock, and no serialization behind token applies.
//
// Buckets are keyed by the same fnv64a hash the router uses, so the
// per-apply copy cost is len(bucket) ≈ keys/viewBuckets. A published
// bucket never changes, so the 256 pointers loaded at one instant (a
// viewImage) are the whole state: captures and snapshots read an image
// instead of copying the map, and a snapshot install adopts one.
type readView struct {
	buckets [viewBuckets]atomic.Pointer[map[string][]byte]

	// applyIndex counts ordered applies on this replica (any op kind —
	// it measures ordered progress, not just map mutations).
	applyIndex atomic.Uint64
	// applyTime is the wall-clock nanotime of the latest ordered apply;
	// together with the node's last token arrival it bounds how stale
	// this replica can be.
	applyTime atomic.Int64
}

// viewBuckets is the COW granularity. Must be a power of two.
const viewBuckets = 256

func bucketOf(h uint64) int { return int(h & (viewBuckets - 1)) }

// viewImage is the keyspace's bucket pointers (nil = empty bucket). A
// decoded snapshot is an image private to its decoder until adopted.
type viewImage [viewBuckets]*map[string][]byte

// deref is a bucket's map; an empty bucket reads as a nil map.
func deref(b *map[string][]byte) map[string][]byte {
	if b == nil {
		return nil
	}
	return *b
}

// get is the lock-free read: load the bucket pointer, look up in the
// immutable map, and copy the value (callers own the returned slice).
func (v *readView) get(key string) ([]byte, bool) {
	val, ok := deref(v.buckets[bucketOf(fnv64a(key))].Load())[key]
	return bytes.Clone(val), ok
}

// keys lists every key of the view (unsorted). Buckets are loaded
// independently, so the listing is a per-bucket-consistent union, the
// same guarantee the old locked iteration gave a concurrent writer.
func (v *readView) keys() (out []string) {
	img := v.image()
	for k := range img.all() {
		out = append(out, k)
	}
	return out
}

// publish is the keyspace's one mutation path: it applies a run of sets
// and deletes in order (a later entry for a key wins), cloning each
// touched bucket once and storing the clones after every entry is in
// place. Deleting an absent key clones nothing; set values are copied.
// Callers hold s.mu exclusively.
func (v *readView) publish(entries []batchEntry) {
	// dirty[i] holds the pending clone for bucket i (a fixed array: the
	// bookkeeping allocates nothing).
	var dirty viewImage
	for i := range entries {
		e := &entries[i]
		bi := bucketOf(fnv64a(e.key))
		next := dirty[bi]
		if next == nil {
			old := deref(v.buckets[bi].Load())
			if e.del {
				if _, ok := old[e.key]; !ok {
					continue
				}
			}
			clone := make(map[string][]byte, len(old)+1)
			for k, ov := range old {
				clone[k] = ov
			}
			next = &clone
			dirty[bi] = next
		}
		if e.del {
			delete(*next, e.key)
		} else {
			(*next)[e.key] = append([]byte(nil), e.val...)
		}
	}
	for bi, next := range dirty {
		if next != nil {
			v.buckets[bi].Store(next)
		}
	}
}

// image loads every bucket pointer: the whole keyspace as of now.
func (v *readView) image() (img viewImage) {
	for i := range v.buckets {
		img[i] = v.buckets[i].Load()
	}
	return img
}

// adopt replaces the keyspace with img, whose buckets are published
// from here on (snapshot install and WAL recovery).
func (v *readView) adopt(img *viewImage) {
	for i := range v.buckets {
		v.buckets[i].Store(img[i])
	}
}

// stamp records one ordered apply.
func (v *readView) stamp() {
	v.applyIndex.Add(1)
	v.applyTime.Store(time.Now().UnixNano())
}

// lastApply returns the wall-clock time of the latest ordered apply
// (zero if nothing has applied yet).
func (v *readView) lastApply() time.Time {
	ns := v.applyTime.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// put adds key=val to an image that is not yet published.
func (img *viewImage) put(key string, val []byte) {
	bi := bucketOf(fnv64a(key))
	if img[bi] == nil {
		img[bi] = &map[string][]byte{}
	}
	(*img[bi])[key] = val
}

// len counts the image's keys.
func (img *viewImage) len() int {
	n := 0
	for _, b := range img {
		n += len(deref(b))
	}
	return n
}

// all iterates the image's pairs, bucket by bucket.
func (img *viewImage) all() iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		for _, b := range img {
			for k, v := range deref(b) {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// diffImages lists what replacing prev by next changes: the keys next
// adds or changes (with next's value) in key order, then the keys it
// removes (as deletes) in key order. Shared buckets are skipped unread.
func diffImages(prev, next *viewImage) []batchEntry {
	var changed, removed []batchEntry
	for i := range prev {
		if prev[i] == next[i] {
			continue
		}
		p, n := deref(prev[i]), deref(next[i])
		for k, v := range n {
			if pv, ok := p[k]; !ok || string(pv) != string(v) {
				changed = append(changed, batchEntry{key: k, val: v})
			}
		}
		for k := range p {
			if _, ok := n[k]; !ok {
				removed = append(removed, batchEntry{del: true, key: k})
			}
		}
	}
	byKey := func(a, b batchEntry) int { return strings.Compare(a.key, b.key) }
	slices.SortFunc(changed, byKey)
	slices.SortFunc(removed, byKey)
	return append(changed, removed...)
}
