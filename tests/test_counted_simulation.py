"""Counted-block simulation: the bytecode tier's bulk pricing must
report exactly what the tree oracle's per-event stream reports.

Every program here is compiled once and simulated under a sweep of
machine configurations, once with ``engine="tree"`` (one cost-hook
call per event) and once with ``engine="bytecode"`` (block counters
priced in bulk).  The two :class:`TitanReport` objects must agree in
cycles, counters, breakdown, the parallel rescale residual, the
result and stdout — bit for bit, since the cost model sums charges
exactly and folds them only at parallel boundaries.
"""

import glob
import os

import pytest

from repro.fuzz import generate_program
from repro.fuzz.generator import GeneratorOptions
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from repro.workloads import blas, graphics, stencils

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "tests", "fuzz_corpus")

O0 = CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                     parallelize=False, reg_pipeline=False,
                     strength_reduction=False)
FULL = CompilerOptions()

#: (processors, max_vector_length, use_scheduler); length 16 forces
#: chunked vector instructions.
CONFIGS = [(p, mvl, sched) for p in (1, 2, 4) for mvl in (2048, 16)
           for sched in (True, False)]

N = 48


def _data(n, scale=0.25):
    return [((i * 7) % 13 - 6) * scale for i in range(n)]


def _kernels():
    """(name, source, entry, args, arrays, scalars) for the seven
    ``repro.workloads`` kernels, small enough for a tree-oracle sweep."""
    return [
        ("backsolve", stencils.backsolve(N), "backsolve", (),
         {"x": _data(N), "y": _data(N), "z": [0.5] * N}, {"n": N}),
        ("prefix", stencils.prefix(N), "prefix", (N,),
         {"acc": [1.0] + [0.0] * (N - 1), "w": _data(N)}, {}),
        ("smooth", stencils.smooth(N), "smooth", (N,),
         {"src": _data(N)}, {}),
        ("guarded_diff", stencils.guarded_diff(N), "guarded_diff", (N,),
         {"gin": _data(N)}, {}),
        ("transform", graphics.transform_points(N), "transform", (N,),
         dict({"mat": _data(16)},
              **{p: _data(N) for p in ("px", "py", "pz", "pw")}), {}),
        ("clamp", graphics.clamp(N), "clamp", (N,),
         {"pix": _data(N)}, {"lo": -1.0, "hi": 1.5}),
        ("daxpy", blas.caller_program(n=N, alpha=1.5), "bench", (),
         {"b": _data(N), "c": _data(N)}, {}),
    ]


def _accepting_corpus():
    out = []
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.c"))):
        with open(path) as handle:
            source = handle.read()
        if source.splitlines()[0].strip() == "// expect: run":
            out.append((os.path.basename(path), source))
    return out


def _generated(index):
    options = GeneratorOptions(min_blocks=6, max_blocks=9) \
        if index % 3 == 0 else None
    return generate_program(5200 + index, options).source


def _simulate(program, engine, config, use_scheduler, entry="main",
              args=(), arrays=None, scalars=None):
    sim = TitanSimulator(program, config, use_scheduler=use_scheduler,
                         engine=engine, max_steps=5_000_000)
    for name, values in (arrays or {}).items():
        sim.set_global_array(name, values)
    for name, value in (scalars or {}).items():
        sim.set_global_scalar(name, value)
    return sim.run(entry, *args), sim.tier()


def _assert_parity(program, label, **run):
    """Tree vs counted bytecode under every config; returns the
    bytecode tiers seen."""
    tiers = set()
    for processors, mvl, sched in CONFIGS:
        config = TitanConfig(processors=processors,
                             max_vector_length=mvl)
        where = f"{label} p={processors} mvl={mvl} sched={sched}"
        oracle, _ = _simulate(program, "tree", config, sched, **run)
        fast, tier = _simulate(program, "bytecode", config, sched, **run)
        tiers.add(tier)
        assert fast.cycles == oracle.cycles, where
        assert fast.counters == oracle.counters, where
        assert fast.breakdown == oracle.breakdown, where
        assert fast.parallel_adjust == oracle.parallel_adjust, where
        assert fast.result == oracle.result, where
        assert fast.stdout == oracle.stdout, where
    return tiers


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "examples", "*.c"))), ids=os.path.basename)
def test_examples(path):
    with open(path) as handle:
        source = handle.read()
    for options in (O0, FULL):
        tiers = _assert_parity(compile_c(source, options).program, path)
        assert tiers == {("counted", "")}


@pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k[0])
def test_workload_kernels(kernel):
    name, source, entry, args, arrays, scalars = kernel
    for options in (O0, FULL):
        program = compile_c(source, options).program
        tiers = _assert_parity(program, name, entry=entry, args=args,
                               arrays=arrays, scalars=scalars)
        assert tiers == {("counted", "")}, name


@pytest.mark.parametrize("name,source", _accepting_corpus(),
                         ids=lambda v: v if isinstance(v, str)
                         and v.endswith(".c") else "")
def test_accepting_corpus(name, source):
    for options in (O0, FULL):
        _assert_parity(compile_c(source, options).program, name)


@pytest.mark.parametrize("index", range(30))
def test_generated_programs(index):
    options = FULL if index % 2 == 0 else O0
    program = compile_c(_generated(index), options).program
    _assert_parity(program, f"generated {index}")


def test_most_programs_take_the_counted_path():
    # The parity sweep is only evidence if the counted path actually
    # ran: generated programs at full optimization count blocks.
    counted = 0
    for index in range(0, 30, 2):
        program = compile_c(_generated(index), FULL).program
        _, tier = _simulate(program, "bytecode", TitanConfig(), True)
        counted += tier == ("counted", "")
    assert counted >= 10


VOLATILE_PROGRAM = """
volatile int status;
int counts[16];
int poll(void) {
    int n = 0;
    while (status == 0 && n < 3)
        n++;
    return n;
}
int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 16; i++)
        counts[i] = i * 2;
    for (i = 0; i < 16; i++)
        total = total + counts[i] + poll();
    return total;
}
"""

LIST_PROGRAM = """
struct node { float value; float squared; struct node *next; };
struct node pool[24];
float scale[64];
void build(int n) {
    int i;
    for (i = 0; i < n - 1; i++) {
        pool[i].value = i * 0.5f;
        pool[i].next = &pool[i+1];
    }
    pool[n-1].value = (n-1) * 0.5f;
    pool[n-1].next = 0;
}
void work(struct node *head) {
    struct node *p;
    for (p = head; p; p = p->next)
        p->squared = p->value * 2.0f;
}
int main(void) {
    int i;
    for (i = 0; i < 64; i++)
        scale[i] = scale[i] * 2.0f + 1.0f;
    build(24);
    work(&pool[0]);
    return 0;
}
"""


@pytest.mark.parametrize("source,what", [
    (VOLATILE_PROGRAM, "volatile"),
    (LIST_PROGRAM, "list-parallel"),
])
def test_fallback_function_keeps_event_stream(source, what):
    # A function the generator cannot lower runs on the closure tier,
    # so the whole run keeps today's event stream — and still agrees.
    options = CompilerOptions(parallelize_lists=True)
    program = compile_c(source, options).program
    tiers = _assert_parity(program, what)
    assert tiers == {("events", "fallback function")}


def test_profiled_run_keeps_event_stream():
    program = compile_c(stencils.backsolve(N), FULL).program
    sim = TitanSimulator(program, profile=True)
    sim.set_global_scalar("n", N)
    sim.run("backsolve")
    assert sim.tier() == ("events", "profile")


def test_parallel_call_boundary_is_exact():
    # A call to a function with a parallel loop is a parallel
    # boundary: the caller's scalar work after it must be priced
    # after the callee's region folds, as the event stream does.
    source = """
    float a[64], b[64];
    float s;
    void par(void) {
        int i;
        for (i = 0; i < 64; i++)
            a[i] = b[i] * 2.0f;
    }
    int main(void) {
        int i;
        for (i = 0; i < 64; i++)
            b[i] = i;
        s = 1.0f;
        par();
        s = s + a[3];
        par();
        s = s * 3.0f + a[5];
        return 0;
    }
    """
    options = CompilerOptions(inline=False)
    program = compile_c(source, options).program
    tiers = _assert_parity(program, "parallel callee")
    assert tiers == {("counted", "")}
