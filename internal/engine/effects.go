package engine

// Effects is one process's deferred-callback buffer (see the package
// doc): a step calls Call or Defer, and the entry that started the step
// runs what it deferred, in order, once the step is over. A nested step
// (a callback re-entering the process) defers past the outer step's
// mark in the same array and dispatches and truncates back to it before
// it returns. Only the process's serialized steps touch the buffer.
//
// An entry Call queues is data: the two words Callback is to be called
// with, which the process interprets (ddb: which of its user callbacks,
// for which transaction). So a step that defers one builds no closure.
// Defer carries a closure for the rare callback that needs more.
type Effects struct {
	fns []effect
	// Settle, when set, runs at the end of every step, before the step's
	// callbacks (ddb drains its ready list here).
	Settle func()
	// Callback runs the entries Call queued; a process that calls Call
	// sets it once, when it is built.
	Callback func(op, arg uint64)
}

// effect is one deferred callback: thunk when Defer queued it,
// Callback(op, arg) when Call did.
type effect struct {
	thunk   func()
	op, arg uint64
}

// Call queues Callback(op, arg) to run after the current step.
func (e *Effects) Call(op, arg uint64) {
	e.fns = append(e.fns, effect{op: op, arg: arg})
}

// Defer queues fn to run after the current step.
func (e *Effects) Defer(fn func()) { e.fns = append(e.fns, effect{thunk: fn}) }

// Run is the entry for a step the runtime has already serialized.
func (e *Effects) Run(step func()) {
	mark := e.step(step)
	e.dispatch(&e.fns, mark)
	e.truncate(mark)
}

// Exec is the entry for a step whose caller waits for it: it runs step
// through r and the step's callbacks on this goroutine once r has let
// go.
func (e *Effects) Exec(r Runner, step func()) {
	var out []effect
	r.Exec(func() {
		mark := e.step(step)
		out = append(out, e.fns[mark:]...)
		e.truncate(mark)
	})
	e.dispatch(&out, 0)
}

// Command is a step posted as data rather than as a closure: the value
// carries the words its step needs, and Step interprets them. A process
// that posts the same few commands over and over pools their values, so
// posting one allocates nothing.
type Command interface {
	Step()
}

// Post is the entry for a command whose caller reads nothing back. When
// r can post (a Host shard's runner), it queues cmd on r and returns
// true at once: cmd.Step and then its callbacks run on the shard's loop
// goroutine through Run, as a delivered step's do. Otherwise (the inline
// runner, or a shard already closed) it queues nothing, runs nothing and
// returns false, and the caller runs the step another way — through
// Exec, typically.
func (e *Effects) Post(r Runner, cmd Command) bool {
	p, ok := r.(poster)
	return ok && p.Post(e, cmd)
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
func (e *Effects) dispatch(fns *[]effect, from int) {
	for i := from; i < len(*fns); i++ {
		if f := (*fns)[i]; f.thunk != nil {
			f.thunk()
		} else {
			e.Callback(f.op, f.arg)
		}
	}
}
