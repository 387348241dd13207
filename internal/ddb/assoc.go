package ddb

// assoc is a small association kept sorted by key. The per-transaction
// collections — the locks an agent holds, a transaction's remote
// acquisitions, a resource's holders — have two to five entries, where a
// scan beats a hash and the sorted slice already is the order release,
// Snapshot and MarshalState must read them in. Truncated to [:0] it keeps
// its capacity for the next owner of a recycled state (see take).
type assoc[K ~int32, V any] []assocEntry[K, V]

type assocEntry[K ~int32, V any] struct {
	key K
	val V
}

// find returns the index of k, or the index it would be inserted at.
func (s assoc[K, V]) find(k K) (int, bool) {
	i := 0
	for i < len(s) && s[i].key < k {
		i++
	}
	return i, i < len(s) && s[i].key == k
}

func (s assoc[K, V]) get(k K) (V, bool) {
	if i, ok := s.find(k); ok {
		return s[i].val, true
	}
	var zero V
	return zero, false
}

func (s *assoc[K, V]) put(k K, v V) {
	i, ok := s.find(k)
	if !ok {
		*s = append(*s, assocEntry[K, V]{})
		copy((*s)[i+1:], (*s)[i:])
	}
	(*s)[i] = assocEntry[K, V]{key: k, val: v}
}

// del removes k and reports whether it was present.
func (s *assoc[K, V]) del(k K) bool {
	i, ok := s.find(k)
	if ok {
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
	return ok
}

// take pops a recycled state off a free list, or allocates one. A
// controller's states are touched by one step at a time, so its free
// lists are plain slices; the caller resets what it takes.
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		x := (*free)[n-1]
		*free = (*free)[:n-1]
		return x
	}
	return new(T)
}
