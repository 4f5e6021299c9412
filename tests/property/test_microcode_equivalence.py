"""The bound sequencer against the word-by-word reference interpreter.

``Sequencer`` decodes the microstore once and runs from a table of
pre-bound handlers.  ``reference_run`` below is the interpreter it
replaced: it fetches every word through ``Program.word_at`` and looks up
every handler in the environment as it goes.  On the real home and
remote programs, and on a small program that uses every opcode form,
from random start addresses with random dispatch codes and condition
results, and with random symbols left unbound, both must return the
same ``(executed, StepResult, entry.pc)``, call the same handlers in the
same order, and raise the same error at the same point.
"""

from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microcode import (
    END,
    MICROSTORE_WORDS,
    Assembler,
    Environment,
    Instr,
    MicrocodeError,
    Op,
    Program,
    Sequencer,
    StepResult,
)
from repro.core.microprograms import build_home_program, build_remote_program
from repro.core.tsrf import TsrfEntry


def reference_run(program: Program, env: Environment, entry,
                  dispatch_code: Optional[int] = None
                  ) -> Tuple[int, StepResult]:
    """The word-by-word interpreter (the sequencer before pre-binding)."""
    executed = 0
    pc = entry.pc
    if dispatch_code is not None:
        word = program.word_at(pc)
        if word.op not in (Op.RECEIVE, Op.LRECEIVE):
            raise MicrocodeError(
                f"dispatch into non-receive instruction at {pc}"
            )
        executed += 1
        pc = word.next_addr | (dispatch_code & 0xF)
    while True:
        if pc == END:
            entry.pc = END
            return executed, StepResult.DONE
        word = program.word_at(pc)
        if word.op in (Op.RECEIVE, Op.LRECEIVE):
            entry.pc = pc
            blocked = (
                StepResult.BLOCKED_EXTERNAL
                if word.op == Op.RECEIVE
                else StepResult.BLOCKED_LOCAL
            )
            return executed, blocked
        executed += 1
        if word.op == Op.TEST:
            cond = env.conditions[word.arg1]
            code = int(cond(entry)) & 0xF
            pc = word.next_addr | code
        elif word.op == Op.SET:
            action = env.actions.get(word.arg1)
            if action is None:
                raise MicrocodeError(
                    f"unbound SET action id {word.arg1} at {pc}"
                )
            action(entry, word.arg2)
            pc = word.next_addr
        elif word.op == Op.MOVE:
            if word.arg1 or word.arg2:
                action = env.actions.get(word.arg1)
                if action is not None:
                    action(entry, word.arg2)
            pc = word.next_addr
        elif word.op == Op.SEND:
            sender = env.senders.get(word.arg1)
            if sender is None:
                raise MicrocodeError(f"unbound SEND id {word.arg1} at {pc}")
            sender(entry)
            pc = word.next_addr
        elif word.op == Op.LSEND:
            sender = env.local_senders.get(word.arg1)
            if sender is None:
                raise MicrocodeError(f"unbound LSEND id {word.arg1} at {pc}")
            sender(entry)
            pc = word.next_addr
        else:  # pragma: no cover - exhaustive
            raise MicrocodeError(f"unknown opcode {word.op}")


def build_mixed_program() -> Program:
    """Every opcode, including the MOVE forms the protocol programs do
    not use: a MOVE with an action, and one with only ``arg2`` set
    (which runs action 0)."""
    return Assembler("mixed").assemble([
        Instr(Op.SET, "first", label="start"),
        Instr(Op.MOVE, "mv"),
        Instr(Op.MOVE, arg2=3),
        Instr(Op.MOVE, "maybe", arg2=2),
        Instr(Op.TEST, "sel", targets={0: "send", 1: "wait", 2: "lwait",
                                       None: "start"}),
        Instr(Op.SEND, "ping", label="send", next="wait"),
        Instr(Op.RECEIVE, label="wait", targets={3: "start", 5: "lsend"}),
        Instr(Op.LSEND, "ask", label="lsend", next="end"),
        Instr(Op.LRECEIVE, label="lwait", targets={1: "last"}),
        Instr(Op.SET, "last", label="last", next="end"),
    ])


PROGRAMS = {"home": build_home_program(), "remote": build_remote_program(),
            "mixed": build_mixed_program()}


class OutOfBudget(Exception):
    """Raised by a stub handler to stop a thread that keeps looping."""


class Recorder:
    """Stub handlers for every symbol of a program.  Each call is logged;
    conditions return the next value of a fixed cycle; after *budget*
    calls every handler raises, so a looping thread stops at the same
    call under both interpreters."""

    def __init__(self, results, budget):
        self.log = []
        self.results = results
        self.budget = budget

    def _tick(self, what):
        self.log.append(what)
        if len(self.log) > self.budget:
            raise OutOfBudget(len(self.log))

    def sender(self, kind, sym):
        return lambda entry: self._tick((kind, sym, entry.index))

    def action(self, sym):
        return lambda entry, op: self._tick(("SET", sym, op))

    def condition(self, sym):
        def cond(entry):
            value = self.results[len(self.log) % len(self.results)]
            self._tick(("TEST", sym, value))
            return value
        return cond

    def environment(self, program, unbound):
        """An environment binding every symbol but the ids in *unbound*
        (``(table, id)`` pairs)."""
        env = Environment()
        for table, names, out, make in (
            ("SEND", program.messages, env.senders,
             lambda s: self.sender("SEND", s)),
            ("LSEND", program.messages, env.local_senders,
             lambda s: self.sender("LSEND", s)),
            ("TEST", program.conditions, env.conditions, self.condition),
            ("SET", program.actions, env.actions, self.action),
        ):
            for sym, idx in names.items():
                if (table, idx) not in unbound:
                    out[idx] = make(sym)
        return env


def receive_addresses(program):
    return [pc for pc, word in enumerate(program.store)
            if word is not None and word.op in (Op.RECEIVE, Op.LRECEIVE)]


@st.composite
def scenarios(draw):
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    program = PROGRAMS[name]
    entry_points = sorted(set(program.entry_points.values()))
    receives = receive_addresses(program)
    start_kind = draw(st.sampled_from(["entry", "receive", "any"]))
    if start_kind == "entry":
        pc, dispatch = draw(st.sampled_from(entry_points)), None
    elif start_kind == "receive":
        pc = draw(st.sampled_from(receives))
        dispatch = draw(st.integers(0, 40))
    else:
        # anywhere in the microstore, often unprogrammed or END
        pc = draw(st.integers(0, MICROSTORE_WORDS - 1))
        dispatch = draw(st.one_of(st.none(), st.integers(0, 15)))
    results = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    symbols = ([("SEND", i) for i in program.messages.values()]
               + [("LSEND", i) for i in program.messages.values()]
               + [("TEST", i) for i in program.conditions.values()]
               + [("SET", i) for i in program.actions.values()])
    unbound = draw(st.sets(st.sampled_from(symbols), max_size=3))
    budget = draw(st.integers(1, 60))
    return name, pc, dispatch, results, frozenset(unbound), budget


def outcome(run, program, pc, dispatch, results, unbound, budget):
    recorder = Recorder(results, budget)
    env = recorder.environment(program, unbound)
    entry = TsrfEntry(3)
    entry.valid = True
    entry.pc = pc
    try:
        executed, result = run(program, env, entry, dispatch)
    except (MicrocodeError, KeyError, OutOfBudget) as exc:
        return ("raised", type(exc), str(exc), recorder.log, entry.pc)
    return ("returned", executed, result, recorder.log, entry.pc)


def bound_run(program, env, entry, dispatch):
    return Sequencer(program, env).run(entry, dispatch)


class TestBoundSequencerMatchesReference:
    @settings(max_examples=400)
    @given(scenarios())
    def test_same_outcome_calls_and_errors(self, scenario):
        name, pc, dispatch, results, unbound, budget = scenario
        program = PROGRAMS[name]
        expected = outcome(reference_run, program, pc, dispatch, results,
                           unbound, budget)
        got = outcome(bound_run, program, pc, dispatch, results, unbound,
                      budget)
        assert got == expected

    @settings(max_examples=50)
    @given(st.sampled_from(sorted(PROGRAMS)), st.data())
    def test_one_sequencer_many_threads(self, name, data):
        """The table is bound once and reused: a sequence of runs on one
        ``Sequencer`` matches the reference run for run."""
        program = PROGRAMS[name]
        results = data.draw(st.lists(st.integers(0, 3), min_size=1,
                                     max_size=4))
        recorders = Recorder(results, 400), Recorder(results, 400)
        env_ref, env_new = (r.environment(program, frozenset())
                            for r in recorders)
        seq = Sequencer(program, env_new)
        starts = sorted(set(program.entry_points.values()))
        for _ in range(data.draw(st.integers(1, 6))):
            pc = data.draw(st.sampled_from(starts))
            ref = outcome_of(lambda e: reference_run(program, env_ref, e),
                             pc, recorders[0])
            new = outcome_of(seq.run, pc, recorders[1])
            assert new == ref
            if ref[0] == "raised":
                break


def outcome_of(run, pc, recorder):
    entry = TsrfEntry(0)
    entry.pc = pc
    try:
        executed, result = run(entry)
    except OutOfBudget as exc:
        return ("raised", str(exc), list(recorder.log), entry.pc)
    return ("returned", executed, result, list(recorder.log), entry.pc)


class TestErrorsKeepTheirMessages:
    def test_outside_the_microstore(self):
        program = PROGRAMS["remote"]
        entry = TsrfEntry(0)
        entry.pc = MICROSTORE_WORDS + 5
        seq = Sequencer(program, Environment())
        with pytest.raises(MicrocodeError, match="outside microstore"):
            seq.run(entry)
        entry.pc = -1
        with pytest.raises(MicrocodeError, match="outside microstore"):
            seq.run(entry)

    def test_dispatch_into_a_non_receive_word(self):
        program = PROGRAMS["home"]
        pc = next(pc for pc, w in enumerate(program.store)
                  if w is not None and w.op == Op.SEND)
        entry = TsrfEntry(0)
        entry.pc = pc
        with pytest.raises(MicrocodeError,
                           match=f"dispatch into non-receive instruction at {pc}"):
            Sequencer(program, Environment()).run(entry, 1)

    def test_unprogrammed_address_is_named(self):
        program = PROGRAMS["home"]
        pc = next(pc for pc, w in enumerate(program.store) if w is None)
        entry = TsrfEntry(0)
        entry.pc = pc
        with pytest.raises(MicrocodeError,
                           match=f"jump into unprogrammed address {pc}$"):
            Sequencer(program, Environment()).run(entry)


class TestAcceptedCodes:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_the_branch_tables(self, name):
        program = PROGRAMS[name]
        accepts = Sequencer(program, Environment()).accepted_codes()
        assert sorted(accepts) == receive_addresses(program)
        for pc, codes in accepts.items():
            base = program.word_at(pc).next_addr
            assert codes == {c for c in range(16)
                             if program.store[base | c] is not None}


def test_bound_table_is_not_pickled():
    import pickle

    program = PROGRAMS["remote"]
    seq = Sequencer(program, Environment())
    entry = TsrfEntry(0)
    entry.pc = END
    seq.run(entry)
    assert seq._table is not None
    clone = pickle.loads(pickle.dumps(seq))
    assert clone._table is None and clone._accepts is None
    # ... and binds again at its next run
    entry.pc = END
    assert clone.run(entry) == (0, StepResult.DONE)
    assert clone._table is not None
