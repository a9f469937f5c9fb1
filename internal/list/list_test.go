package list

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func collect(l *List[int]) []int {
	var out []int
	l.Do(func(v int) { out = append(out, v) })
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyList(t *testing.T) {
	var l List[int]
	if l.Len() != 0 || l.Head() != nil || l.Tail() != nil {
		t.Fatalf("zero list not empty: len=%d", l.Len())
	}
	if !l.Validate() {
		t.Fatal("empty list fails validation")
	}
	if l.PopTail() != nil {
		t.Fatal("pop on empty list returned node")
	}
}

func TestPushHeadOrder(t *testing.T) {
	var l List[int]
	for i := 1; i <= 3; i++ {
		l.PushHead(&Node[int]{Value: i})
	}
	if got := collect(&l); !equalInts(got, []int{3, 2, 1}) {
		t.Fatalf("PushHead order = %v, want [3 2 1]", got)
	}
	if !l.Validate() {
		t.Fatal("validation failed")
	}
}

func TestPushTailOrder(t *testing.T) {
	var l List[int]
	for i := 1; i <= 3; i++ {
		l.PushTail(&Node[int]{Value: i})
	}
	if got := collect(&l); !equalInts(got, []int{1, 2, 3}) {
		t.Fatalf("PushTail order = %v, want [1 2 3]", got)
	}
}

func TestRemoveHeadTailMiddle(t *testing.T) {
	var l List[int]
	nodes := make([]*Node[int], 5)
	for i := range nodes {
		nodes[i] = &Node[int]{Value: i}
		l.PushTail(nodes[i])
	}
	l.Remove(nodes[2]) // middle
	if got := collect(&l); !equalInts(got, []int{0, 1, 3, 4}) {
		t.Fatalf("after middle remove: %v", got)
	}
	l.Remove(nodes[0]) // head
	l.Remove(nodes[4]) // tail
	if got := collect(&l); !equalInts(got, []int{1, 3}) {
		t.Fatalf("after head/tail remove: %v", got)
	}
	if nodes[2].Attached() {
		t.Fatal("removed node still attached")
	}
	if !l.Validate() {
		t.Fatal("validation failed")
	}
}

func TestMoveToHeadAndTail(t *testing.T) {
	var l List[int]
	nodes := make([]*Node[int], 4)
	for i := range nodes {
		nodes[i] = &Node[int]{Value: i}
		l.PushTail(nodes[i])
	}
	l.MoveToHead(nodes[2])
	if got := collect(&l); !equalInts(got, []int{2, 0, 1, 3}) {
		t.Fatalf("MoveToHead: %v", got)
	}
	l.MoveToTail(nodes[0])
	if got := collect(&l); !equalInts(got, []int{2, 1, 3, 0}) {
		t.Fatalf("MoveToTail: %v", got)
	}
	// Moving head to head and tail to tail must be no-ops.
	l.MoveToHead(l.Head())
	l.MoveToTail(l.Tail())
	if got := collect(&l); !equalInts(got, []int{2, 1, 3, 0}) {
		t.Fatalf("no-op moves changed order: %v", got)
	}
}

func TestPopOrder(t *testing.T) {
	var l List[int]
	for i := 0; i < 3; i++ {
		l.PushTail(&Node[int]{Value: i})
	}
	if n := l.PopTail(); n.Value != 2 {
		t.Fatalf("PopTail = %d, want 2", n.Value)
	}
	if n := l.PopTail(); n.Value != 1 {
		t.Fatalf("PopTail = %d, want 1", n.Value)
	}
	if l.Len() != 1 || l.Head() != l.Tail() {
		t.Fatal("single-element invariant broken")
	}
}

func TestMembershipTracking(t *testing.T) {
	var a, b List[int]
	n := &Node[int]{Value: 7}
	a.PushHead(n)
	if !n.Attached() {
		t.Fatal("pushed node not attached")
	}
	a.Remove(n)
	if n.Attached() {
		t.Fatal("removed node still attached")
	}
	b.PushTail(n)
	if !n.Attached() || a.Len() != 0 || b.Head() != n {
		t.Fatal("membership wrong after move across lists")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("attaching an attached node did not panic")
		}
	}()
	var l List[int]
	n := &Node[int]{}
	l.PushHead(n)
	l.PushHead(n)
}

func TestRemoveForeignNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("removing a foreign node did not panic")
		}
	}()
	var a, b List[int]
	n := &Node[int]{}
	a.PushHead(n)
	b.Remove(n)
}

// TestRandomOpsProperty drives a list with random operations against a slice
// model and checks order equivalence plus structural invariants.
func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		var l List[int]
		var model []int // values head..tail
		nodes := map[int]*Node[int]{}
		next := 0
		for _, op := range opsRaw {
			switch op % 6 {
			case 0: // push head
				n := &Node[int]{Value: next}
				l.PushHead(n)
				nodes[next] = n
				model = append([]int{next}, model...)
				next++
			case 1: // push tail
				n := &Node[int]{Value: next}
				l.PushTail(n)
				nodes[next] = n
				model = append(model, next)
				next++
			case 2: // remove random
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				v := model[i]
				l.Remove(nodes[v])
				delete(nodes, v)
				model = append(model[:i], model[i+1:]...)
			case 3: // move random to head
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				v := model[i]
				l.MoveToHead(nodes[v])
				model = append(model[:i], model[i+1:]...)
				model = append([]int{v}, model...)
			case 4: // move random to tail
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				v := model[i]
				l.MoveToTail(nodes[v])
				model = append(model[:i], model[i+1:]...)
				model = append(model, v)
			case 5: // pop tail
				n := l.PopTail()
				if len(model) == 0 {
					if n != nil {
						return false
					}
					continue
				}
				if n == nil || n.Value != model[len(model)-1] {
					return false
				}
				delete(nodes, n.Value)
				model = model[:len(model)-1]
			}
			if !l.Validate() || l.Len() != len(model) {
				return false
			}
		}
		return equalInts(collect(&l), model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
