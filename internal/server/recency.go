package server

// recency is a bounded map whose keys keep an order, oldest first: the
// daemon's one recency structure. An LRU touches a key on every use; a FIFO
// never does, so its order is insertion order. It is not safe for
// concurrent use.
type recency[V any] struct {
	max int
	// pinned, when set, spares a value from eviction.
	pinned func(V) bool
	nodes  map[string]*recNode[V]
	root   recNode[V] // sentinel: root.next is the oldest key, root.prev the newest
}

type recNode[V any] struct {
	key        string
	val        V
	prev, next *recNode[V]
}

func newRecency[V any](max int, pinned func(V) bool) *recency[V] {
	r := &recency[V]{max: max, pinned: pinned, nodes: make(map[string]*recNode[V])}
	r.root.prev, r.root.next = &r.root, &r.root
	return r
}

func (r *recency[V]) len() int { return len(r.nodes) }

// get returns key's value without reordering.
func (r *recency[V]) get(key string) (v V, ok bool) {
	if n := r.nodes[key]; n != nil {
		return n.val, true
	}
	return v, false
}

// touch returns key's value and makes key the newest.
func (r *recency[V]) touch(key string) (v V, ok bool) {
	n := r.nodes[key]
	if n == nil {
		return v, false
	}
	r.unlink(n)
	r.pushNewest(n)
	return n.val, true
}

// put replaces key's value where it stands, or adds key as the newest and
// evicts the oldest unpinned keys past the bound. It returns the evicted
// values.
func (r *recency[V]) put(key string, v V) (evicted []V) {
	if n := r.nodes[key]; n != nil {
		n.val = v
		return nil
	}
	n := &recNode[V]{key: key, val: v}
	r.nodes[key] = n
	r.pushNewest(n)
	for n := r.root.next; n != &r.root && len(r.nodes) > r.max; n = n.next {
		if r.pinned == nil || !r.pinned(n.val) {
			r.unlink(n)
			delete(r.nodes, n.key)
			evicted = append(evicted, n.val)
		}
	}
	return evicted
}

// list returns the keys and their values, oldest first.
func (r *recency[V]) list() (keys []string, vals []V) {
	for n := r.root.next; n != &r.root; n = n.next {
		keys, vals = append(keys, n.key), append(vals, n.val)
	}
	return keys, vals
}

func (r *recency[V]) unlink(n *recNode[V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (r *recency[V]) pushNewest(n *recNode[V]) {
	n.prev, n.next = r.root.prev, &r.root
	n.prev.next, r.root.prev = n, n
}
