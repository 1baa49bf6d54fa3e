"""Deterministic discrete-event engine.

Design
------
* The engine owns a priority queue of ``(time, seq, target, gen)`` entries
  and a virtual clock. ``seq`` is a monotone counter so ties break
  deterministically in scheduling order. An event is either a plain
  callback (``target`` is the callable, ``gen`` is ``None``) or the resume
  of a process (``target``) valid only for its block generation ``gen``.
* Each simulated process (:class:`Proc`) runs user code on its own fiber
  (an OS thread), but the engine guarantees **exactly one fiber runs at a
  time**. This gives plain blocking-style user code, determinism, and free
  atomicity for all simulator state.
* A process yields with :meth:`Proc.block` and is resumed by
  :meth:`Proc.wake`, which schedules a resume event at the waker's current
  time. :meth:`Proc.sleep` advances the process's local time, which is how
  modeled compute/communication costs are charged. Every block carries a
  generation number; resume events for an older generation are ignored, and
  duplicate wakes of the same generation are dropped at the call site
  without allocating an event.
* Because scheduling is cooperative, nothing can run between a process
  registering itself in a wait list and blocking — lost wake-ups cannot
  happen as long as wakers only wake registered waiters.
* When the event queue empties while live processes remain blocked, the
  engine raises :class:`~repro.util.errors.DeadlockError` naming each
  blocked process's call site — the hazard of Figure 2 of the paper.

Dispatch
--------
There is no scheduler thread: whichever fiber holds the baton runs the
dispatch loop (:meth:`Engine._advance`) itself. Generic callbacks execute
inline on the current OS thread; when the next event is a resume of another
process the baton (a pre-locked raw lock per process) is handed over
directly, one context switch; and when a process sleeps with no earlier
pending event it simply advances the clock and keeps running (no switch, no
heap traffic). Same-time events bypass the heap through a FIFO ``_due``
deque, merged with the heap by ``(time, seq)``, so events always execute in
global ``(time, seq)`` order. A future event at the time of the previous
future push shares that push's heap slot: it joins the slot's *run*, a FIFO
keyed by the head entry's ``seq`` (SPMD ranks charge the same costs in
lockstep, so most pushes at large P coincide). When the head is popped its
run becomes ``_due``, ahead of whatever ``_due`` held, which was pushed
later at the same time; the merge then yields the same global order.

A blocking *library* call — a barrier, a flush, a put-then-flush — is a
sequence of modelled costs and waits with no user code in between, and is
written once, as a *script*: a generator that yields each cost and wait
(:meth:`Proc.run_script`). Its caller parks once. Every resume in the
middle of the call is still an event of that process, popped at the same
``(time, seq)`` and recorded as such, but the dispatching fiber answers it
by advancing the generator in place (:meth:`Engine._drive`) instead of
handing the baton over; the baton goes back to the owner only when the
script is over. :attr:`Engine.handoffs` counts the resumes that did cost a
switch. What stays on a fiber is user code: the program itself, and the
two places a library hands control back to it in the middle of a blocking
call — a shipped function's body and a runtime continuation — which a
script asks for by yielding the callable: :meth:`Proc.run_script` runs it on
the script's own fiber, at the time and place in the event order it was
asked for, and drives on when it returns (real CAF 2.0 does the same: the
handler enqueues, the image executes).

Since only one fiber ever runs, the fibers of a run are one logical thread
of execution and are placed like one: each confines itself to one host CPU
and asks for a scheduling policy whose wake-ups do not preempt the waker
(:meth:`Engine._colocate_fiber`), which makes a handoff cost the one
context switch it needs. The thread that calls :meth:`Engine.run` is left
as it was. CPython's cyclic collector is paused while the fibers run: it
finds nothing to free there and rescans state that grows with the number of
processes (docs/architecture.md, "The collector"). And the fibers allocate
like one thread: the first run of a process caps glibc's malloc arenas at
one, since per-thread arenas buy one-at-a-time fibers no concurrency, only
free lists and slack that fragment their numpy blocks (:func:`_one_malloc_arena`;
docs/architecture.md, "Host memory per rank").

Invariant: wall-clock optimizations here change *how fast* the host
executes the schedule, never *which* schedule is executed. Virtual times,
event order (see :meth:`Engine.order_digest`), profiler totals and figure
outputs are pinned by the golden table in ``tests/sim/test_dispatchers.py``.
"""

from __future__ import annotations

import _thread
import ctypes
import functools
import gc
import hashlib
import heapq
import os
import struct
import sys
import threading
from collections import deque
from collections.abc import Callable, Generator
from typing import Any

from repro.sim import irhook as _irhook
from repro.util.errors import DeadlockError, SimTimeoutError, SimulationError

#: Event-order digest record: (virtual time, pid) — pid is -1 for callbacks.
_pack_order = struct.Struct("<dq").pack


def _caller_cpu() -> int | None:
    """The CPU a run's fibers should share: the only one the calling thread
    is allowed on, else the one it is executing on right now. ``None`` when
    the host cannot say (no affinity calls, no ``/proc``)."""
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) == 1:
            return next(iter(allowed))
        with open("/proc/thread-self/stat", "rb") as stat:
            # proc(5) field 39, ``processor``; the comm in field 2 may hold
            # spaces, so count from its closing parenthesis (field 3 = [0]).
            cpu = int(stat.read().rpartition(b")")[2].split()[36])
    except (AttributeError, OSError, ValueError, IndexError):
        return None
    return cpu if cpu in allowed else None


#: ``M_ARENA_MAX`` of glibc's ``<malloc.h>``.
_M_ARENA_MAX = -8


@functools.cache
def _libc() -> Any:
    """The C library's symbols, or ``None`` where ctypes cannot open them.
    Kept for the process: a ``CDLL`` is a reference cycle (it defines its
    own function-pointer class), which only a collection would free."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def _one_malloc_arena() -> int | None:
    """Cap glibc's malloc arenas at one, once per process: ``1`` if the cap
    holds, ``None`` if the allocator was left as it was (no ``mallopt``, or
    it refused).

    Fibers are OS threads, and glibc gives each new thread its own arena
    up to eight per CPU. Only one fiber ever runs, so those arenas buy no
    concurrency; each keeps its own free lists and slack, and a run's numpy
    blocks fragment across them. glibc fixes its arena limit the first time
    the process would create a ninth arena and never reads the setting
    again: a cap set after that is ignored. Hence :meth:`Engine.run` asks
    before its first fiber starts. The cap is process-wide and stays after
    the run; ``MALLOC_ARENA_MAX`` in the environment is glibc's own and
    nothing here reads it.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None or mallopt(_M_ARENA_MAX, 1) != 1:
        return None
    return 1


class Site:
    """What a script yields to wait for it: an event (a
    :class:`~repro.sim.sync.SimEvent`, a request), with an ``is_set`` flag
    and a ``_waiters`` list its firing wakes. Unless it is set,
    :meth:`Engine._drive` makes the process its waiter and parks the script
    on it, and the reason is built only when a report reads
    :attr:`Proc.block_reason`. A ``(template, *args)`` tuple is the other
    lazy reason: ``template % args``.
    """

    __slots__ = ()

    def _wait_reason(self) -> str:
        raise NotImplementedError


class _Killed(BaseException):
    """Raised inside a process fiber to unwind it during engine teardown.

    Derives from ``BaseException`` so user ``except Exception`` blocks cannot
    swallow it.
    """


class Proc:
    """A simulated process: user code plus scheduling state.

    The target callable receives this object (usually wrapped in a richer
    per-rank context) and may only interact with the engine while it is the
    running process.
    """

    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"

    def __init__(
        self,
        engine: Engine,
        pid: int,
        target: Callable[[Proc], Any],
        name: str,
        daemon: bool = False,
    ):
        self.engine = engine
        self.pid = pid
        self.name = name
        #: Daemon processes (library progress agents) may outlive the
        #: program: they neither block run() completion nor count as
        #: deadlocked when everything else finishes.
        self.daemon = daemon
        self.state = Proc.NEW
        #: What the process is parked on: a call-site string from
        #: :meth:`block`, the :class:`Site` or ``(template, *args)`` a script
        #: yielded, or the bare duration of a parked :meth:`sleep` —
        #: formatted only when :attr:`block_reason` is read.
        self._block_site: Any = "not started"
        #: Virtual time this process last resumed execution — the watchdog
        #: and deadlock diagnostics report it so a hung rank can be told
        #: apart from a slow one.
        self.last_progress = 0.0
        #: Set by :meth:`_crash`: the process was killed mid-run by an
        #: injected image-crash event (not normal teardown).
        self.crashed = False
        self.result: Any = None
        self._target = target
        self._killed = False
        self._gen = 0  # generation of the current block; stale resumes are ignored
        #: Generation for which a resume event is already scheduled; wakes
        #: targeting the same generation are dropped at the call site.
        self._woken_gen = -1
        #: The script :meth:`run_script` is running (dispatchers advance it
        #: at this process's resumes), a callable it yielded for this fiber
        #: to run, its outcome once it is over, and — sanitized runs only —
        #: the frame that called ``run_script``.
        self._script: Generator[Any, Any, Any] | None = None
        self._script_call: Callable[[], Any] | None = None
        self._script_value: Any = None
        self._script_error: BaseException | None = None
        self._script_caller: Any = None
        # Raw lock as a pre-locked baton: park = acquire, resume = release.
        # ~5x cheaper than threading.Semaphore's pure-python Condition.
        self._baton = _thread.allocate_lock()
        self._baton.acquire()
        self._thread = threading.Thread(
            target=self._run, name=f"sim-{name}", daemon=True
        )

    # -- scheduler side -------------------------------------------------

    def _start(self) -> None:
        eng = self.engine
        try:
            self._thread.start()
        except RuntimeError as exc:
            # Thread exhaustion (``ulimit -u``, kernel.threads-max) is the
            # realistic failure at thousands of ranks; say so, instead of
            # leaving the user with a bare "can't start new thread".
            started = sum(p._thread.ident is not None for p in eng.procs)
            raise SimulationError(
                f"could not start the fiber of {self.name!r}: {started} of "
                f"{len(eng.procs)} process fibers started before the host "
                f"refused another thread ({exc}); run fewer ranks or raise "
                "the thread limit (ulimit -u, kernel.threads-max)"
            ) from exc
        eng._schedule_resume(eng.now, self, 0)

    def _kill(self) -> None:
        """Engine-teardown kill: unwind the fiber and wait for it to die."""
        if self.state == Proc.DONE:
            return
        self._killed = True
        if self._thread.ident is None:
            # Never started (run() failed part-way through start-up, or
            # never got that far): there is no fiber to unwind or join.
            self.state = Proc.DONE
            return
        self._baton.release()
        self._thread.join()

    def _crash(self) -> None:
        """Kill this process mid-run (an injected image crash).

        Must be called from dispatcher context while the process is parked
        (blocked or awaiting a resume), which injected crash events always
        are. A killed fiber neither dispatches nor signals.
        """
        if self.state == Proc.DONE:
            return
        self.crashed = True
        self._killed = True
        if threading.current_thread() is self._thread:
            # The crash event fired while this process's own fiber was
            # dispatching (callbacks run inline). Mark it dead now — wakes
            # and pending resumes are dropped from here on — and let _park
            # unwind the fiber once dispatch hands off.
            self.state = Proc.DONE
            return
        self._baton.release()
        self._thread.join()

    # -- process side ---------------------------------------------------

    @property
    def block_reason(self) -> str:
        """Where this process is (or was last) parked, for diagnostics."""
        site = self._block_site
        if type(site) is str:
            return site
        if isinstance(site, Site):
            return site._wait_reason()
        if type(site) is tuple:
            return site[0] % site[1:]
        return f"sleep({site:g})"

    def _run(self) -> None:
        eng = self.engine
        eng._colocate_fiber()
        self._baton.acquire()  # wait for the initial resume
        if self._killed:
            self.state = Proc.DONE
            return
        try:
            self.result = self._target(self)
        except _Killed:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to scheduler
            # A crashed process may explode in user ``finally`` blocks while
            # unwinding; those secondary failures are part of the injected
            # crash, not program bugs, so only live processes report.
            if not self._killed and eng._failure is None:
                eng._failure = exc
        finally:
            self.state = Proc.DONE
            if not self._killed:
                # The dying fiber dispatches whatever comes next (or signals
                # the end of the run) before its thread exits.
                eng._current = None
                eng._hand_off(eng._advance())

    def _park(self) -> None:
        """Give up the CPU: run the dispatch loop on this fiber.

        Callbacks execute inline; a self-resume returns without any context
        switch; a resume of another process hands the baton over directly.
        """
        eng = self.engine
        eng._current = None
        nxt = eng._advance()
        if self._killed:
            # An inline crash callback killed *this* fiber while it was
            # dispatching (state is already DONE, so nxt is never self).
            # Hand the baton on, then unwind our own suspended user frames.
            eng._hand_off(nxt)
            raise _Killed
        if nxt is self:
            return
        eng._hand_off(nxt)
        self._baton.acquire()
        if self._killed:
            raise _Killed

    def block(self, reason: Any) -> None:
        """Yield until some other party calls :meth:`wake`.

        The caller must have registered itself with whatever structure will
        eventually wake it *before* blocking. ``reason`` is a call-site
        string, or a :class:`Site` or ``(template, *args)`` that
        :attr:`block_reason` formats when read.
        """
        self._check_running("block")
        self._gen += 1
        self.state = Proc.BLOCKED
        self._block_site = reason
        self._park()

    def wake(self) -> None:
        """Schedule this process to resume at the engine's current time.

        A wake targets the process's *current* block; if the process blocks
        again before the resume event fires, the stale resume is ignored
        (the waker must wake it again through the new wait structure).
        Waking a generation that already has a pending resume is a no-op —
        the duplicate is dropped here, at the call site, without allocating
        an event that the dispatcher would discard later.
        """
        if self.state == Proc.DONE and self._killed:
            # A crashed (or torn-down) process may still sit in waiter
            # lists; dropping the wake lets survivors carry on.
            return
        if self.state != Proc.BLOCKED:
            raise SimulationError(f"wake() on non-blocked {self!r}")
        engine = self.engine
        if self._woken_gen == self._gen:
            engine.stale_wakes_dropped += 1
            return
        self._woken_gen = self._gen  # _schedule_resume at ``now``, in place
        engine._due.append((engine.now, engine._seq, self, self._gen))
        engine._seq += 1

    def sleep(self, duration: float) -> None:
        """Advance this process's local (virtual) time by ``duration``."""
        self._check_running("sleep")
        if duration < 0:
            raise SimulationError(f"cannot sleep for negative time {duration!r}")
        rec = _irhook.RECORDER
        if rec is not None:
            # Before the zero-duration fast exit: the cost expression may be
            # nonzero under the replay target spec even when it is zero here.
            rec.on_sleep(duration)
        if duration == 0:
            return
        engine = self.engine
        when = engine.now + duration
        if not engine._due and (
            engine._deadline is None or when <= engine._deadline
        ):
            heap = engine._heap
            if not heap or heap[0][0] > when:
                # Nothing can run before this sleep ends: advance the clock
                # in place. No event, no heap traffic, no context switch —
                # a queued resume would be popped next with nothing in
                # between, so the executed schedule is the same.
                self._gen += 1
                engine.now = when
                engine.events_executed += 1
                engine._make_running(self)
                return
        self._gen += 1
        self.state = Proc.BLOCKED
        self._block_site = duration
        engine._schedule_resume(when, self, self._gen)
        self._park()

    def run_script(self, script: Generator[Any, Any, Any]) -> Any:
        """Run ``script`` — one blocking library call written as a generator
        — to its end and return its value: one park however many costs and
        waits the call is made of.

        The script yields a number (sleep that long: what :meth:`sleep`
        does), a string (block with that reason: what :meth:`block` does),
        a ``(template, *args)`` (block with the reason it formats when
        read), a :class:`Site` (wait for that event: its firing is the
        wake), ``None`` (nothing: a cost the machine does not charge) or a
        callable (below), and composes with ``yield from``. Every
        resume stays an event of this process with the ``(time, seq)`` it
        would have had; only *who executes it* changes — whichever fiber is
        dispatching advances the generator in place (:meth:`Engine._drive`)
        instead of switching to this one. The baton comes back when the
        script returns or raises, and the value or the exception (with its
        traceback, whoever was driving) surfaces here.

        A script segment may run on any fiber, so it must not call
        :meth:`sleep`, :meth:`block` or :meth:`run_script` (they refuse) or
        anything that runs user code; it yields instead. Code that may do
        any of that — user code a library call has to run part-way through
        — is yielded as a callable: the baton comes back here, the callable
        runs on this fiber as if no script were open (no event, no virtual
        time of its own), and the script carries on after it.
        """
        self._check_running("run_script")
        engine = self.engine
        # Diagnostics name the *application* line that made the call, which
        # is on this fiber's stack, not on a driving fiber's.
        caller = sys._getframe(1) if engine.sanitizer is not None else None
        self._script_caller = caller
        self._script = script
        try:
            while True:
                if not engine._drive(self):
                    self._park()
                call = self._script_call
                if call is None:
                    break
                self._script_call = self._script = self._script_caller = None
                try:
                    call()
                finally:
                    self._script = script
                    self._script_caller = caller
        finally:
            self._script_caller = None
            if self._script is not None:
                # Unwound mid-script (an injected crash, teardown, a failed
                # callable): let the script's ``finally`` blocks run.
                self._script = None
                script.close()
        error = self._script_error
        if error is not None:
            self._script_error = None
            try:
                raise error
            finally:
                # This frame rides on the error's traceback.
                error = None
        value, self._script_value = self._script_value, None
        return value

    def _check_running(self, op: str) -> None:
        if self.engine._current is not self:
            raise SimulationError(
                f"{op}() called from outside the running process "
                f"(current={self.engine._current}, self={self}): work a "
                "callback releases must be queued for the process's own "
                "fiber, which the CAF runtime's defer does"
            )
        if self._script is not None:
            raise SimulationError(
                f"{op}() called from inside a script of {self.name!r}: a "
                "script runs on whichever fiber is dispatching and must not "
                "park it — yield it / use yield from (yield the seconds or "
                "the block reason, `yield from` another script)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Proc {self.pid} {self.name!r} {self.state}>"


class Engine:
    """Event queue, virtual clock and process registry."""

    def __init__(self) -> None:
        #: ``(when, seq, target, gen)``: ``gen`` is ``None`` for a callback,
        #: else the block generation of process ``target`` this resume is for.
        self._heap: list[tuple[float, int, Any, int | None]] = []
        #: Same-time events (``when == now``) bypass the heap through this
        #: FIFO; it stays sorted by ``(when, seq)`` because ``now`` never
        #: decreases, and is merged with the heap head on pop.
        self._due: deque[tuple[float, int, Any, int | None]] = deque()
        #: Future events that share a heap slot: the entries pushed after
        #: the head ``seq`` at its time, with no other future push between.
        #: Every member runs right after its head, before any later push.
        self._runs: dict[int, deque[tuple[float, int, Any, int | None]]] = {}
        #: Time, ``seq`` and run (``None`` until a push joins it) of the last
        #: entry pushed on the heap; a future push at that time joins its run.
        #: ``-1.0`` (no push matches) before the first, and once a cancel left
        #: that slot empty.
        self._last_when = -1.0
        self._last_seq = -1
        self._last_run: deque[tuple[float, int, Any, int | None]] | None = None
        self._seq = 0
        self.now = 0.0
        self.procs: list[Proc] = []
        self._end = _thread.allocate_lock()  # run-over signal to run()
        self._end.acquire()
        self._current: Proc | None = None
        #: Attached by :class:`~repro.sim.cluster.Cluster` when sanitizing;
        #: every scheduling point of a rank process ticks its vector clock.
        self.sanitizer = None
        #: Attached by the cluster when live telemetry is armed
        #: (:class:`~repro.obs.live.LiveTelemetry`); every executed resume
        #: offers the tap a heartbeat. Same zero-cost-off contract as the
        #: sanitizer: one attribute load plus an ``is None`` test. The
        #: pacing countdown lives here, not on the tap, so the armed cost
        #: is one decrement per event — the tap only sees every
        #: ``check_every``-th resume.
        self.telemetry = None
        self._tel_countdown = 0
        #: Host placement of this run's fibers, decided once in :meth:`run`
        #: and withdrawn by :meth:`_colocate_fiber` if the host refuses.
        self._fiber_cpu: int | None = None
        self._fiber_batch = False
        self._malloc_arenas: int | None = None
        self._failure: BaseException | None = None
        self._ran = False
        self._finished = False
        self._deadline: float | None = None
        self._timeout_info: tuple[dict[int, str], dict[int, float]] | None = None
        #: Executed events (live resumes + callbacks); stale resumes and
        #: dropped wakes are not counted.
        self.events_executed = 0
        #: Duplicate same-generation wakes dropped at the call site.
        self.stale_wakes_dropped = 0
        self._handoffs = 0
        self._digest: Any = None
        #: Whether a digest, sanitizer or telemetry sees resumes, fixed in
        #: :meth:`run` (all three are attached before it).
        self._observed = False
        if os.environ.get("REPRO_SIM_DIGEST"):
            self.enable_order_digest()

    # -- construction ---------------------------------------------------

    def spawn(
        self,
        target: Callable[[Proc], Any],
        name: str | None = None,
        *,
        daemon: bool = False,
    ) -> Proc:
        """Register a new process.

        Before :meth:`run`, the process starts at virtual time 0. During a
        run (e.g. a library spawning a progress agent), it starts at the
        current virtual time. Daemon processes neither hold the run open
        nor count as deadlocked.
        """
        if self._finished:
            raise SimulationError("cannot spawn after the engine has finished")
        pid = len(self.procs)
        proc = Proc(self, pid, target, name or f"proc{pid}", daemon=daemon)
        self.procs.append(proc)
        if self._ran:
            proc._start()
        return proc

    # -- host placement of the fibers --------------------------------------

    @property
    def fiber_cpu(self) -> int | None:
        """The host CPU this run's fibers were confined to, or ``None`` if
        they were left wherever the kernel puts them (before :meth:`run`,
        on hosts without affinity calls, or when the host refused)."""
        return self._fiber_cpu

    @property
    def fiber_policy(self) -> str:
        """``"batch"`` if the fibers run under ``SCHED_BATCH``, else
        ``"normal"`` (the caller's policy, inherited)."""
        return "batch" if self._fiber_batch else "normal"

    @property
    def malloc_arenas(self) -> int | None:
        """``1`` if this run's fibers allocate from one glibc malloc arena,
        or ``None`` if the C allocator was left as it was (before
        :meth:`run`, off glibc, or when ``mallopt`` refused)."""
        return self._malloc_arenas

    def _colocate_fiber(self) -> None:
        """Called by every fiber thread on *itself* before it first parks.

        Confine the thread to the run's CPU (a handoff that wakes a thread
        on another, idle CPU costs 3-5x one that stays put), then make it
        ``SCHED_BATCH``, whose wake-ups never preempt the waker — under
        the default policy the woken fiber preempts the one still holding
        the GIL, finds it taken and goes back to sleep: two to three
        context switches per handoff instead of one. Pin first, batch only
        if the pin held: batch without co-location leaves every wake's
        placement to the kernel's wake-affinity heuristic and has measured
        up to 5x slower than doing nothing.

        ``pid`` 0 is the calling thread on Linux, so the thread that
        called :meth:`run`, the process and everything else the embedding
        program owns are left alone; the fibers die with the run, so there
        is nothing to restore. A refusal withdraws the fact
        (:attr:`fiber_cpu`, :attr:`fiber_policy`) and the run proceeds
        unplaced. Numbers: docs/architecture.md, "One handoff, one context
        switch".
        """
        cpu = self._fiber_cpu
        if cpu is None:
            return
        try:
            os.sched_setaffinity(0, (cpu,))
        except OSError:
            self._fiber_cpu = None
            self._fiber_batch = False
            return
        if self._fiber_batch:
            try:
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            except (AttributeError, OSError):
                self._fiber_batch = False

    @property
    def handoffs(self) -> int:
        """Baton passes to a *different* fiber so far: the resumes that cost
        a host context switch (the others ran inline, on the dispatching
        fiber). Exact for a given program, whatever the host."""
        return self._handoffs

    # -- event-order digest ---------------------------------------------

    def enable_order_digest(self) -> None:
        """Start hashing the executed event order (must precede :meth:`run`).

        The digest covers ``(virtual time, pid)`` for every live resume and
        ``(virtual time, -1)`` for every callback, in execution order — the
        determinism fingerprint the golden tables and the benchmark pin.
        Also enabled by setting ``REPRO_SIM_DIGEST`` in the environment.
        """
        if self._digest is None:
            self._digest = hashlib.blake2b(digest_size=16)

    def order_digest(self) -> str | None:
        """Hex digest of the executed event order, or ``None`` if disabled."""
        return self._digest.hexdigest() if self._digest is not None else None

    # -- event queue -----------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> int:
        """Schedule ``fn()`` to run in dispatcher context at virtual time
        ``when``; returns the entry's ticket for :meth:`cancel`."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now={now})"
            )
        rec = _irhook.RECORDER
        if rec is not None:
            fn = rec.on_call_at(when - now, fn)
        seq = self._seq  # _schedule_resume's push, in place
        entry = (when, seq, fn, None)
        self._seq = seq + 1
        if when == now:
            self._due.append(entry)
        elif when == self._last_when:
            run = self._last_run
            if run is None:
                self._last_run = self._runs[self._last_seq] = deque((entry,))
            else:
                run.append(entry)
        else:
            heapq.heappush(self._heap, entry)
            self._last_when = when
            self._last_seq = seq
            self._last_run = None
        return seq

    def call_in(self, delay: float, fn: Callable[[], None]) -> int:
        rec = _irhook.RECORDER
        if rec is not None:
            # Hand the recorder the caller's delay verbatim: call_at only
            # sees the absolute time, and ``(now + delay) - now`` is not
            # bit-identical to ``delay``. Replay re-adds the raw delay,
            # reproducing the live ``now + delay`` arithmetic exactly.
            rec.pending_delay = delay
        return self.call_at(self.now + delay, fn)

    def cancel(self, ticket: int) -> None:
        """Withdraw the callback :meth:`call_at` / :meth:`call_in` returned
        ``ticket`` for, if it has not run: it will not run, count as an event
        or hold the clock. The ticket is the entry's sequence number, so a
        callback may keep its own (a retry timer) without a reference cycle.
        The entry leaves the queue here: the dispatch loop checks nothing."""
        entry = self._withdraw(ticket)
        rec = _irhook.RECORDER
        if entry is not None and rec is not None:
            rec.void_call(entry[2])

    def _withdraw(self, ticket: int) -> tuple[float, int, Any, int | None] | None:
        """Take the entry ``ticket`` out of the queue; ``None`` if absent."""
        for queue in (self._due, *self._runs.values()):
            for i, entry in enumerate(queue):
                if entry[1] == ticket:
                    del queue[i]
                    return entry
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[1] == ticket:
                break
        else:
            return None
        run = self._runs.pop(ticket, None)
        if run:
            # The run's next entry takes the slot: same time, and no other
            # entry's seq lies between the two, so the heap order holds.
            heap[i] = nxt = run.popleft()
            self._runs[nxt[1]] = run
            if self._last_seq == ticket:
                self._last_seq = nxt[1]
        else:
            del heap[i]
            heapq.heapify(heap)
            if self._last_seq == ticket:
                self._last_when = -1.0  # a later push at its time heads a slot
        return entry

    def _schedule_resume(self, when: float, proc: Proc, gen: int) -> None:
        proc._woken_gen = gen
        seq = self._seq
        entry = (when, seq, proc, gen)
        self._seq = seq + 1
        if when == self.now:
            self._due.append(entry)
        elif when == self._last_when:
            # The previous future push's time: share its heap slot.
            run = self._last_run
            if run is None:
                self._last_run = self._runs[self._last_seq] = deque((entry,))
            else:
                run.append(entry)
        else:
            heapq.heappush(self._heap, entry)
            self._last_when = when
            self._last_seq = seq
            self._last_run = None

    # -- dispatch ---------------------------------------------------------

    def _make_running(self, proc: Proc) -> None:
        proc.state = Proc.RUNNING
        proc.last_progress = self.now
        self._current = proc
        san = self.sanitizer
        if san is not None and proc.pid < san.nranks:
            san.tick(proc.pid)
        if self._digest is not None:
            self._digest.update(_pack_order(self.now, proc.pid))
        tel = self.telemetry
        if tel is not None:
            # Read-only heartbeat: the tap inspects engine state and writes
            # to its own stream, never schedules — the event order (and so
            # the digest) is bit-identical with telemetry on or off.
            self._tel_countdown -= 1
            if self._tel_countdown <= 0:
                self._tel_countdown = tel.check_every
                tel.tick(self)

    def _advance(self) -> Proc | None:
        """The dispatch loop: run events until a process must resume.

        Executes callbacks inline on the calling fiber (with no process
        current) and returns the next process to run — already marked
        running — or ``None`` when the run is over (queue drained, deadline
        hit, or a failure recorded).
        """
        if self._failure is not None:
            return None
        heap = self._heap
        due = self._due
        runs = self._runs
        pop = heapq.heappop
        deadline = self._deadline
        digest = self._digest
        observed = self._observed
        while True:
            # Entries compare as ``(time, seq)``: a seq is never repeated.
            if due and not (heap and heap[0] < due[0]):
                ev = due.popleft()
            elif heap:
                ev = pop(heap)
                if runs:
                    run = runs.pop(ev[1], None)
                    if run is not None:
                        # Pushed before ``now`` reached its time, so ahead
                        # of everything ``_due`` holds.
                        run.extend(due)
                        self._due = due = run
            else:
                return None
            when, _, target, gen = ev
            if deadline is not None and when > deadline:
                blocked = self._blocked_report()
                if blocked:
                    self.now = deadline
                    self._timeout_info = (blocked, self._progress_report())
                return None  # daemon-only activity past the deadline ends quietly
            self.now = when
            if gen is not None:
                proc = target
                if gen != proc._gen or proc.state == Proc.DONE:
                    continue  # stale resume (re-block or died process)
                self.events_executed += 1
                proc.state = Proc.RUNNING  # all _make_running does, unobserved
                proc.last_progress = when
                self._current = proc
                if observed:
                    self._make_running(proc)
                if proc._script is None:
                    return proc
                if self._drive(proc):
                    return proc  # script over, or a callable to run: its fiber's turn
                self._current = None
                continue
            self.events_executed += 1
            if digest is not None:
                digest.update(_pack_order(when, -1))
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - surfaced from run()
                if self._failure is None:
                    self._failure = exc
            if self._failure is not None:
                return None

    def _drive(self, proc: Proc) -> bool:
        """Advance ``proc``'s script — ``proc`` is current — until it parks
        (``False``) or its own fiber must take over (``True``): the script
        is over, outcome stored on ``proc`` for :meth:`Proc.run_script`, or
        it yielded a callable for that fiber to run.

        A yielded duration is :meth:`Proc.sleep`, a yielded reason is
        :meth:`Proc.block`, statement for statement; the caller dispatches
        instead of parking a fiber. A yielded ``(template, *args)`` is a
        reason formatted only when read, and a yielded :class:`Site` is a
        wait for it: unless it is set, the process joins its waiters and
        parks on it (its firing is what wakes the process).
        """
        script = proc._script
        send = script.send  # send(None) is next(script), and the cheaper call
        while True:
            try:
                step = send(None)
            except StopIteration as stop:
                proc._script = None
                proc._script_value = stop.value
                return True
            except BaseException as exc:  # noqa: BLE001 - re-raised by run_script
                proc._script = None
                proc._script_error = exc
                return True
            if step is None:
                continue
            if type(step) is not float:
                if isinstance(step, Site):
                    if step.is_set:
                        continue  # nothing to wait for
                    if step._waiters:
                        step._waiters.append(proc)
                    else:
                        step._waiters = [proc]
                    proc._gen += 1
                    proc.state = Proc.BLOCKED
                    proc._block_site = step
                    return False
                if type(step) is str or type(step) is tuple:
                    proc._gen += 1
                    proc.state = Proc.BLOCKED
                    proc._block_site = step
                    return False
                if callable(step):
                    proc._script_call = step
                    return True
            if step < 0:
                script.close()
                proc._script = None
                proc._script_error = SimulationError(
                    f"cannot sleep for negative time {step!r}"
                )
                return True
            rec = _irhook.RECORDER
            if rec is not None:
                rec.on_sleep(step)
            if step == 0:
                continue
            when = self.now + step
            if not self._due and (self._deadline is None or when <= self._deadline):
                heap = self._heap
                if not heap or heap[0][0] > when:
                    proc._gen += 1
                    self.now = when
                    self.events_executed += 1
                    if self._observed:
                        self._make_running(proc)
                    else:
                        proc.last_progress = when  # already running and current
                    continue
            gen = proc._gen = proc._woken_gen = proc._gen + 1
            proc.state = Proc.BLOCKED
            proc._block_site = step
            seq = self._seq  # _schedule_resume's push, in place
            entry = (when, seq, proc, gen)
            self._seq = seq + 1
            if when == self.now:
                self._due.append(entry)
            elif when == self._last_when:
                run = self._last_run
                if run is None:
                    self._last_run = self._runs[self._last_seq] = deque((entry,))
                else:
                    run.append(entry)
            else:
                heapq.heappush(self._heap, entry)
                self._last_when = when
                self._last_seq = seq
                self._last_run = None
            return False

    def _hand_off(self, nxt: Proc | None) -> None:
        """Pass the baton to ``nxt``, or tell :meth:`run` the run is over."""
        if nxt is not None:
            self._handoffs += 1
            nxt._baton.release()
        else:
            self._end.release()

    # -- main loop ------------------------------------------------------

    def run(self, *, deadline: float | None = None) -> None:
        """Run until all processes finish. Must be called from the creating thread.

        ``deadline`` is a virtual-time watchdog: if the next event lies
        beyond it while non-daemon processes remain unfinished, the run
        aborts with :class:`SimTimeoutError` instead of spinning through
        (say) an unbounded retransmission schedule. Daemon-only activity
        past the deadline is not a hang; the run ends quietly.

        The cyclic garbage collector is off from fiber start-up until
        teardown has joined the fibers, and on every exit it is left as the
        caller had it. The C allocator is set up once per process, before
        the first fiber starts: glibc's malloc arenas are capped at one
        (:func:`_one_malloc_arena`; :attr:`malloc_arenas` says whether it
        held). Unlike the collector the cap stays: glibc would ignore a
        later one.

        Raises
        ------
        DeadlockError
            If the event queue empties while unfinished processes remain.
        SimTimeoutError
            If ``deadline`` is reached with unfinished processes.
        SimulationError
            If the host refuses to start a process fiber (thread limit).
        Exception
            Re-raises the first exception raised inside any process.
        """
        if self._ran:
            raise SimulationError("engine can only run once")
        if deadline is not None and deadline < 0:
            raise SimulationError(f"deadline must be non-negative, got {deadline}")
        self._ran = True
        self._deadline = deadline
        self._observed = any(o is not None for o in (self._digest, self.sanitizer, self.telemetry))
        self._fiber_cpu = _caller_cpu()
        self._fiber_batch = self._fiber_cpu is not None
        self._malloc_arenas = _one_malloc_arena()
        collector_was_on = gc.isenabled()
        gc.disable()
        try:
            for proc in self.procs:
                proc._start()
            first = self._advance()
            if first is not None:
                first._baton.release()
                self._end.acquire()  # released by whichever fiber ends the run
            if self._timeout_info is not None:
                blocked, progress = self._timeout_info
                raise SimTimeoutError(deadline, blocked, last_progress=progress)
            if self._failure is not None:
                raise self._failure
            blocked = self._blocked_report()
            if blocked:
                raise DeadlockError(
                    blocked, now=self.now, last_progress=self._progress_report()
                )
        finally:
            self._finished = True
            for proc in self.procs:
                proc._kill()
            self._end_run()
            if collector_was_on:
                gc.enable()

    def _end_run(self) -> None:
        """Cut the run's back-edges through the engine once every fiber is
        joined, so a finished run is acyclic and reference counting frees
        it: each process drops its target, engine and thread, the queue its
        callbacks that never ran, the engine its sanitizer and its failure
        (which travels on as the raised exception). Counters, the order
        digest and each process's ``state`` / ``crashed`` stay readable, and
        so does its :attr:`~Proc.block_reason`: a site it parked on last is
        formatted here, since the waitable may hold the process."""
        self._heap.clear()
        self._due.clear()
        self._runs.clear()
        self._last_when, self._last_run = -1.0, None
        self._failure = self.sanitizer = None
        for proc in self.procs:
            proc.engine = proc._target = proc._thread = None
            if isinstance(proc._block_site, (Site, tuple)):
                proc._block_site = proc.block_reason

    def _blocked_report(self) -> dict[int, str]:
        """Per-rank call-site of every unfinished, non-daemon process."""
        return {
            p.pid: p.block_reason
            for p in self.procs
            if p.state != Proc.DONE and not p.daemon
        }

    def _progress_report(self) -> dict[int, float]:
        return {
            p.pid: p.last_progress
            for p in self.procs
            if p.state != Proc.DONE and not p.daemon
        }
