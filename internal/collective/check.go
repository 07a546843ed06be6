package collective

import "fmt"

// Verification caps: Verify is called from the recovery ladder (which only
// needs to prove routing correctness, not move real payloads) and from the
// fuzzer, so inputs are clamped instead of trusted.
const (
	verifyMaxNodes = 1 << 12
	verifyMaxWords = 1 << 16
	// verifyMaxTotal bounds nodes x words so pathological fuzz inputs cannot
	// allocate unbounded buffers.
	verifyMaxTotal = 1 << 20
)

// Verify executes the request's pattern in the data-level interpreter on a
// deterministic payload derived from seed and checks the outcome against a
// direct computation of the collective's definition. It returns nil when the
// interpreter moves bytes correctly and a descriptive error otherwise; it
// never panics, whatever the request contains.
//
// The fault-recovery ladder calls Verify after every retried or recompiled
// collective: a recovered schedule must still realize the same data movement
// the pristine plan promised, bit for bit.
func Verify(req Request, ranks, chips, banks int, seed int64) error {
	if ranks < 1 || chips < 1 || banks < 1 {
		return fmt.Errorf("collective: verify topology %dx%dx%d invalid", ranks, chips, banks)
	}
	// Cap each dimension before multiplying so the product cannot overflow.
	if ranks > verifyMaxNodes || chips > verifyMaxNodes || banks > verifyMaxNodes {
		return fmt.Errorf("collective: verify topology %dx%dx%d exceeds per-dimension cap %d",
			ranks, chips, banks, verifyMaxNodes)
	}
	n := ranks * chips * banks
	if n > verifyMaxNodes {
		return fmt.Errorf("collective: verify topology %d nodes exceeds cap %d", n, verifyMaxNodes)
	}
	op := req.Op
	switch op {
	case Sum, Min, Max, Or:
	default:
		return fmt.Errorf("collective: verify unknown op %d", int(op))
	}
	elem := req.ElemSize
	if elem <= 0 {
		elem = 4
	}
	words := int(req.BytesPerNode / int64(elem))
	switch {
	case words < 1:
		words = 1
	case words > verifyMaxWords:
		words = verifyMaxWords
	}
	if words > verifyMaxTotal/n {
		words = verifyMaxTotal / n
		if words < 1 {
			words = 1
		}
	}

	switch req.Pattern {
	case AllReduce:
		return verifyAllReduce(ranks, chips, banks, words, op, seed)
	case ReduceScatter:
		return verifyReduceScatter(ranks, chips, banks, words, op, seed)
	case AllGather:
		return verifyAllGather(n, words, seed)
	case AllToAll:
		return verifyAllToAll(n, words, seed)
	case Broadcast:
		return verifyBroadcast(n, words, clampRoot(req.Root, n), seed)
	case Gather:
		return verifyGather(n, words, seed)
	case Reduce:
		return verifyReduce(n, words, op, seed)
	default:
		return fmt.Errorf("collective: verify unknown pattern %d", int(req.Pattern))
	}
}

func clampRoot(root, n int) int {
	if root < 0 || root >= n {
		return 0
	}
	return root
}

// verifyAllReduce checks the hierarchical pipeline against the elementwise
// reduction of all contributions.
func verifyAllReduce(ranks, chips, banks, words int, op Op, seed int64) error {
	d := NewData(ranks*chips*banks, words, seed)
	want := ReduceVector(d, op)
	if err := HierarchicalAllReduce(d, ranks, chips, banks, op); err != nil {
		return err
	}
	for i, v := range d {
		if !wordsEqual(v, want) {
			return fmt.Errorf("collective: AllReduce node %d diverges from ground truth", i)
		}
	}
	return nil
}

// verifyReduceScatter checks that every node's owned shard matches the full
// reduction over that shard.
func verifyReduceScatter(ranks, chips, banks, words int, op Op, seed int64) error {
	d := NewData(ranks*chips*banks, words, seed)
	want := ReduceVector(d, op)
	if err := HierarchicalReduceScatter(d, ranks, chips, banks, op); err != nil {
		return err
	}
	id := func(r, c, b int) int { return (r*chips+c)*banks + b }
	for r := 0; r < ranks; r++ {
		for c := 0; c < chips; c++ {
			for b := 0; b < banks; b++ {
				lo, hi := OwnedShard(words, chips, banks, c, b)
				if !wordsEqual(d[id(r, c, b)][lo:hi], want[lo:hi]) {
					return fmt.Errorf("collective: ReduceScatter shard [%d:%d) wrong at (r%d,c%d,b%d)", lo, hi, r, c, b)
				}
			}
		}
	}
	return nil
}

// verifyAllGather seeds each node's authoritative ring chunk (the
// reduce-scatter postcondition the all-gather assumes) and checks every node
// converges to the full reference vector.
func verifyAllGather(n, words int, seed int64) error {
	// The flat ring check replicates the gathered vector at every node
	// (n^2 x words memory); shrink the instance, not the property.
	if n > 256 {
		n = 256
	}
	if max := (1 << 20) / (n * n); words > max {
		words = max
	}
	if words < 1 {
		words = 1
	}
	total := n * words
	ref := NewData(1, total, seed)[0]
	d := make(Data, n)
	for i := range d {
		d[i] = make([]int64, total)
		own := OwnedAfterRS(n, i)
		lo, hi := ChunkBounds(total, n, own)
		copy(d[i][lo:hi], ref[lo:hi])
	}
	RingAllGather(d)
	for i, v := range d {
		if !wordsEqual(v, ref) {
			return fmt.Errorf("collective: AllGather node %d missing contributions", i)
		}
	}
	return nil
}

// verifyAllToAll checks the stepped permutation schedule against both the
// one-shot exchange and the direct definition (block j of node i becomes
// block i of node j). Payloads are padded to a whole number of blocks, the
// same normalization the timing models apply.
func verifyAllToAll(n, words int, seed int64) error {
	// Personalized exchange needs >= one block per destination; keep the
	// instance small enough that the padded payload stays bounded.
	if n > 256 {
		n = 256
	}
	if words > 4*n {
		words = 4 * n
	}
	if rem := words % n; rem != 0 {
		words += n - rem
	}
	orig := NewData(n, words, seed)
	oneShot := orig.Clone()
	PairwiseAllToAll(oneShot)
	stepped := orig.Clone()
	PairwiseAllToAllStepped(stepped)
	if !oneShot.Equal(stepped) {
		return fmt.Errorf("collective: AllToAll stepped schedule diverges from one-shot exchange")
	}
	blk := words / n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !wordsEqual(oneShot[i][j*blk:(j+1)*blk], orig[j][i*blk:(i+1)*blk]) {
				return fmt.Errorf("collective: AllToAll block %d->%d misrouted", j, i)
			}
		}
	}
	return nil
}

func verifyBroadcast(n, words, root int, seed int64) error {
	d := NewData(n, words, seed)
	want := append([]int64(nil), d[root]...)
	BroadcastData(d, root)
	for i, v := range d {
		if !wordsEqual(v, want) {
			return fmt.Errorf("collective: Broadcast node %d differs from root %d", i, root)
		}
	}
	return nil
}

func verifyGather(n, words int, seed int64) error {
	d := NewData(n, words, seed)
	out := GatherData(d)
	if len(out) != n*words {
		return fmt.Errorf("collective: Gather produced %d words, want %d", len(out), n*words)
	}
	for i := 0; i < n; i++ {
		if !wordsEqual(out[i*words:(i+1)*words], d[i]) {
			return fmt.Errorf("collective: Gather slot %d out of order", i)
		}
	}
	return nil
}

// verifyReduce cross-checks ReduceVector against a reversed fold: the
// funnel schedule combines contributions in arrival order, so the operator
// must give the same answer regardless of association order.
func verifyReduce(n, words int, op Op, seed int64) error {
	d := NewData(n, words, seed)
	want := ReduceVector(d, op)
	rev := append([]int64(nil), d[n-1]...)
	for i := n - 2; i >= 0; i-- {
		for j, v := range d[i] {
			rev[j] = op.Apply(rev[j], v)
		}
	}
	if !wordsEqual(rev, want) {
		return fmt.Errorf("collective: Reduce order-dependent under op %v", op)
	}
	return nil
}

func wordsEqual(a, b []int64) bool {
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
