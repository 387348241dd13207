package engine

// Effects is one process's deferred-callback buffer (see the package
// doc): a step calls Defer, and the entry that started the step runs
// what it deferred, in order, once the step is over. A nested step (a
// callback re-entering the process) defers past the outer step's mark
// in the same array and dispatches and truncates back to it before it
// returns. Only the process's serialized steps touch the buffer.
type Effects struct {
	fns []func()
	// Settle, when set, runs at the end of every step, before the step's
	// callbacks (ddb drains its ready list here).
	Settle func()
}

// Defer queues fn to run after the current step.
func (e *Effects) Defer(fn func()) { e.fns = append(e.fns, fn) }

// Run is the entry for a step the runtime has already serialized.
func (e *Effects) Run(step func()) {
	mark := e.step(step)
	dispatch(&e.fns, mark)
	e.truncate(mark)
}

// Exec is the entry for a step whose caller waits for it: it runs step
// through r and the step's callbacks on this goroutine once r has let
// go.
func (e *Effects) Exec(r Runner, step func()) {
	var out []func()
	r.Exec(func() {
		mark := e.step(step)
		out = append(out, e.fns[mark:]...)
		e.truncate(mark)
	})
	dispatch(&out, 0)
}

// Post is the entry for a command whose caller reads nothing back from
// the step. When r can post (a Host shard's runner), it queues the step
// on r and returns at once: the step and then its callbacks run on the
// shard's loop goroutine, as a delivered step's do. Otherwise (the
// inline runner, or a shard already closed) it is Exec. It reports
// whether the step was queued, so a caller can tell whether the step
// has run by the time Post returns.
func (e *Effects) Post(r Runner, step func()) bool {
	if p, ok := r.(poster); ok && p.Post(func() { e.Run(step) }) {
		return true
	}
	e.Exec(r, step)
	return false
}

// step runs step and Settle, returning the mark its callbacks start at.
func (e *Effects) step(step func()) (mark int) {
	mark = len(e.fns)
	step()
	if e.Settle != nil {
		e.Settle()
	}
	return mark
}

// truncate drops the callbacks past mark, clearing them for the GC.
func (e *Effects) truncate(mark int) {
	clear(e.fns[mark:])
	e.fns = e.fns[:mark]
}

// dispatch runs (*fns)[from:] in order, re-reading the slice each time
// round: a nested step appends past the end and truncates back itself.
func dispatch(fns *[]func(), from int) {
	for i := from; i < len(*fns); i++ {
		(*fns)[i]()
	}
}
