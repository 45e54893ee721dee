package knative

// lruList is a doubly-linked list of *svcApp, the container/list ring
// idiom with a concrete element type: the tier's hot LRU sits on the
// serving hot path, where the interface{} boxing and type assertions
// of container/list are pure overhead (and the per-push allocation is
// avoidable noise against the zero-alloc observe contract).
type lruList struct {
	root lruElem // sentinel: root.next is front, root.prev is back
	len  int
}

// lruElem is one list node; Value is the app it tracks.
type lruElem struct {
	prev, next *lruElem
	list       *lruList
	Value      *svcApp
}

func newLRUList() *lruList {
	l := &lruList{}
	l.Init()
	return l
}

// Init resets the list to empty; existing elements become orphans.
func (l *lruList) Init() {
	l.root.prev, l.root.next = &l.root, &l.root
	l.len = 0
}

// Len reports the number of elements.
func (l *lruList) Len() int { return l.len }

// Front returns the most recently used element, nil when empty.
func (l *lruList) Front() *lruElem {
	if l.len == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the least recently used element, nil when empty.
func (l *lruList) Back() *lruElem {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// Next returns the next element toward the back, nil at the end.
func (e *lruElem) Next() *lruElem {
	if n := e.next; e.list != nil && n != &e.list.root {
		return n
	}
	return nil
}

// Prev returns the next element toward the front, nil at the front.
func (e *lruElem) Prev() *lruElem {
	if p := e.prev; e.list != nil && p != &e.list.root {
		return p
	}
	return nil
}

func (l *lruList) insertAfter(e, at *lruElem) {
	e.prev, e.next = at, at.next
	e.prev.next, e.next.prev = e, e
	e.list = l
	l.len++
}

// PushFront inserts v at the front and returns its element.
func (l *lruList) PushFront(v *svcApp) *lruElem {
	e := &lruElem{Value: v}
	l.insertAfter(e, &l.root)
	return e
}

// Remove unlinks e. Removing an element twice, or one orphaned by Init,
// is a bug the nil list pointer turns into a visible panic.
func (l *lruList) Remove(e *lruElem) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next, e.list = nil, nil, nil
	l.len--
}

// MoveToFront makes e the most recently used element.
func (l *lruList) MoveToFront(e *lruElem) {
	if l.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}
