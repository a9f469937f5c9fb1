// Package list provides an intrusive, generically typed doubly linked list.
//
// The recency-ordered cache policies in this repository (LRU and FIFO,
// CFLRU, BPLRU, VBBMS, ECR, the read-ahead wrapper and Req-block's
// three-level lists) are built on ordered lists with O(1) move-to-head,
// move-to-tail, and unlink operations. The standard container/list works,
// but an intrusive typed list avoids an interface{} indirection per element
// and lets a node carry its payload inline, which matters when a simulation
// touches tens of millions of pages. LFU, FAB and PUD-LRU order their
// victims in indexed heaps (internal/vindex) instead.
//
// A List[T] owns Node[T] values allocated by the caller. A node may belong to
// at most one list at a time; the list it belongs to is tracked so that
// misuse (pushing an attached node, unlinking a node from a list it does
// not belong to) panics instead of corrupting two lists.
package list

// Node is an element of a List. The zero value is a detached node.
type Node[T any] struct {
	prev, next *Node[T]
	owner      *List[T]

	// Value is the payload carried by the node.
	Value T
}

// Next returns the node closer to the tail, or nil at the tail.
func (n *Node[T]) Next() *Node[T] { return n.next }

// Prev returns the node closer to the head, or nil at the head.
func (n *Node[T]) Prev() *Node[T] { return n.prev }

// Attached reports whether the node currently belongs to any list.
func (n *Node[T]) Attached() bool { return n.owner != nil }

// List is a doubly linked list of *Node[T]. The zero value is an empty list
// ready to use.
type List[T any] struct {
	head, tail *Node[T]
	length     int
}

// Len returns the number of nodes in the list. O(1).
func (l *List[T]) Len() int { return l.length }

// Head returns the first node, or nil if the list is empty.
func (l *List[T]) Head() *Node[T] { return l.head }

// Tail returns the last node, or nil if the list is empty.
func (l *List[T]) Tail() *Node[T] { return l.tail }

// PushHead inserts a detached node at the head.
// It panics if the node is already attached to a list.
func (l *List[T]) PushHead(n *Node[T]) {
	l.checkDetached(n)
	n.owner = l
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	} else {
		l.tail = n
	}
	l.head = n
	l.length++
}

// PushTail inserts a detached node at the tail.
// It panics if the node is already attached to a list.
func (l *List[T]) PushTail(n *Node[T]) {
	l.checkDetached(n)
	n.owner = l
	n.next = nil
	n.prev = l.tail
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	l.length++
}

// Remove unlinks n from the list. It panics if n does not belong to l.
func (l *List[T]) Remove(n *Node[T]) {
	l.checkMember(n)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next, n.owner = nil, nil, nil
	l.length--
}

// MoveToHead relocates a node of l to the head. O(1).
func (l *List[T]) MoveToHead(n *Node[T]) {
	l.checkMember(n)
	if l.head == n {
		return
	}
	l.Remove(n)
	l.PushHead(n)
}

// MoveToTail relocates a node of l to the tail. O(1).
func (l *List[T]) MoveToTail(n *Node[T]) {
	l.checkMember(n)
	if l.tail == n {
		return
	}
	l.Remove(n)
	l.PushTail(n)
}

// PopTail removes and returns the tail node, or nil if the list is empty.
func (l *List[T]) PopTail() *Node[T] {
	n := l.tail
	if n != nil {
		l.Remove(n)
	}
	return n
}

// Do calls f on every value from head to tail. f must not mutate the list.
func (l *List[T]) Do(f func(v T)) {
	for n := l.head; n != nil; n = n.next {
		f(n.Value)
	}
}

// Validate checks the structural invariants of the list: the head/tail
// pointers, the prev/next symmetry, ownership, and the cached length. It
// returns false on the first violation. Intended for tests and property
// checks.
func (l *List[T]) Validate() bool {
	if l.length == 0 {
		return l.head == nil && l.tail == nil
	}
	if l.head == nil || l.tail == nil || l.head.prev != nil || l.tail.next != nil {
		return false
	}
	count := 0
	var prev *Node[T]
	for n := l.head; n != nil; n = n.next {
		if n.owner != l || n.prev != prev {
			return false
		}
		prev = n
		count++
		if count > l.length {
			return false
		}
	}
	return prev == l.tail && count == l.length
}

func (l *List[T]) checkDetached(n *Node[T]) {
	if n.owner != nil {
		panic("list: node already attached")
	}
}

func (l *List[T]) checkMember(n *Node[T]) {
	if n.owner != l {
		panic("list: node not in this list")
	}
}
