"""Process coroutines for the simulation kernel.

A :class:`Process` wraps a generator. The generator yields :class:`Event`
objects; the process suspends until the event is processed and then resumes
with the event's value (or the event's exception thrown into it). A process
is itself an event that triggers when the generator returns, so processes can
wait on each other, be combined with ``AllOf``/``AnyOf``, and be interrupted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import (
    PROCESSED,
    RECYCLABLE_CALLBACKS,
    Event,
    Interrupt,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process", "ProcessGenerator"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process.

    Besides behaving like an event (triggered when the generator finishes,
    value = the generator's return value), a process supports:

    * :meth:`interrupt` -- throw :class:`Interrupt` into the generator at the
      current simulation time, even while it waits on an event.
    * :attr:`is_alive` -- whether the generator is still running.
    """

    __slots__ = ("_generator", "_target", "name", "_detached")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str = "",
        detached: bool = False,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(env, label=name or getattr(generator, "__name__", ""))
        self.name = self.label
        self._generator = generator
        self._target: Optional[Event] = None
        #: Started by Environment.spawn: no handle exists, so a normal
        #: return is final at once instead of a scheduled completion.
        self._detached = detached
        # Kick off the generator via an immediately-processed initialization
        # event so that process start is itself an event on the queue (start
        # order between processes created at the same instant is FIFO). The
        # zero-delay timeout comes from the environment's recycle pool, so
        # steady-state process creation allocates no event objects.
        # The label reuses the process name unformatted: building an
        # "init:<name>" string per process start shows up in profiles.
        init = env.timeout(0.0, label=self.name)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return self._value is not None or not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process stops waiting on its current target (the target event is
        *not* cancelled -- a later trigger of it is simply ignored for this
        process) and resumes immediately with the exception.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self._target is None:
            raise SimulationError(
                f"cannot interrupt {self.name!r} while it is being resumed"
            )
        # Detach from the old target.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        carrier = Event(self.env, label=f"interrupt:{self.name}")
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier.defuse()
        carrier.callbacks.append(self._resume)
        self.env._schedule(carrier)

    # -- driver ---------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        generator = self._generator
        env._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defuse()
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                env._active_process = None
                if self._detached:
                    self._ok = True
                    self._value = exc.value
                    self._state = PROCESSED
                    self.callbacks = None
                else:
                    self.succeed(exc.value)
                return
            except BaseException as exc:
                env._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.fail(error)
                return
            if next_event.env is not env:
                env._active_process = None
                self.fail(SimulationError("yielded event belongs to another environment"))
                return

            if next_event._state is PROCESSED:
                # Already done: loop and feed its value straight back in.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            env._active_process = None
            return


# A process drops its reference to the yielded event when it resumes
# (``self._target = None``), so a Timeout whose only waiter is a process can
# be recycled as soon as the resume callback returns.
RECYCLABLE_CALLBACKS.add(Process._resume)
