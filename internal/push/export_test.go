package push

import "slices"

// NewParallelCutover is NewParallel with an explicit cutover, so tests can
// fan out rounds the default cutover would run on one worker.
func NewParallelCutover(variant Variant, workers, cutover int) *Parallel {
	e := NewParallel(variant, workers)
	e.cutover = cutover
	return e
}

// NewSortAggregateCutover is NewSortAggregate with an explicit cutover.
func NewSortAggregateCutover(workers, cutover int) *SortAggregate {
	e := NewSortAggregate(workers)
	e.cutover = cutover
	return e
}

// DrainDirty appends the dirty vertices to dst in ascending id order, resets
// the tracking, and reports whether the set was poisoned (all == true means
// "assume every estimate changed" and the appended list is empty).
func (st *State) DrainDirty(dst []int32) (dirty []int32, all bool) {
	all = st.dirtyAll
	if !all {
		dst = slices.AppendSeq(dst, st.dirty.All())
	}
	st.resetDirty()
	return dst, all
}
