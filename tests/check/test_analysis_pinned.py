"""End-to-end pins on the start-time static analysis of shipped programs.

Every :meth:`FGProgram.start` lints its program and analyzes the effects
of its stages.  For each program a case starts, this test hashes

* the lint findings ``(rule, pipeline, stage, message)``,
* the per-stage ``parallel_safety`` rows of ``repro lint --effects``,
* the :func:`repro.check.dataflow.program_effects` conflicts, scoped
  and program-wide, as ``(stage_a, stage_b, pipelines, cell label,
  kind)`` (cell ``obj_id`` values differ per run and are left out),
* the stage-graph fingerprint,

and compares the digest with ``PINNED``, recorded before the analysis
decoded each code object once and scanned each stage once.  The cases
are dsort (plain and under a :class:`RecoveryManager`), csort, nowsort,
dsort-linear and groupby at 4 x 2000 records, and every
``examples/*.py`` through :mod:`repro.check.runner` (whose report lines
are hashed too).
"""

import contextlib
import functools
import hashlib
import os

import numpy as np
import pytest

from repro.apps.groupby import GroupByConfig, KeyValueSchema, run_groupby
from repro.bench.harness import default_dsort_config, run_sort
from repro.check import dataflow, linter
from repro.check.runner import lint_paths
from repro.cluster import Cluster
from repro.core.program import FGProgram
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.plan.ir import ProgramGraph
from repro.recover import RecoveryManager, RecoverPolicy
from repro.sorting.dsort import run_dsort
from repro.workloads.distributions import generate_keys
from repro.workloads.generator import generate_input

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(REPO, "examples"))
                  if name.endswith(".py"))
NODES = 4
PER_NODE = 2000
SCHEMA = RecordSchema.paper_16()


def _conflict_rows(conflicts):
    return sorted((c.stage_a, c.stage_b, c.pipeline_a, c.pipeline_b,
                   str(c.cell), c.kind) for c in conflicts)


@contextlib.contextmanager
def analyzed_programs():
    """Yield a dict that fills with ``program name -> digest`` for every
    program started inside the block (repeated names get ``#2``, ...).

    Findings and effect rows are read from the collectors the lint pass
    fills during ``start()``; conflicts and the fingerprint from a graph
    of the started program.
    """
    digests = {}
    start = FGProgram.start
    previous = linter.COLLECTOR, linter.EFFECTS
    if linter.COLLECTOR is None:
        linter.COLLECTOR = []
    if linter.EFFECTS is None:
        linter.EFFECTS = []

    @functools.wraps(start)
    def analyzed_start(prog):
        collector, effect_rows = linter.COLLECTOR, linter.EFFECTS
        n_findings = len(collector)
        n_rows = 0 if effect_rows is None else len(effect_rows)
        procs = start(prog)
        findings = sorted(
            (f.rule_id, f.pipeline, f.stage, f.message)
            for _, report in collector[n_findings:] for f in report)
        rows = [] if effect_rows is None else [
            row for _, entries in effect_rows[n_rows:] for row in entries]
        graph = ProgramGraph.from_program(prog)
        effects = dataflow.program_effects(graph)
        doc = repr((findings, rows, _conflict_rows(effects.conflicts),
                    _conflict_rows(effects.all_conflicts),
                    graph.fingerprint()))
        key, i = prog.name, 1
        while key in digests:
            i += 1
            key = f"{prog.name}#{i}"
        digests[key] = hashlib.sha256(doc.encode()).hexdigest()
        return procs

    FGProgram.start = analyzed_start
    try:
        yield digests
    finally:
        FGProgram.start = start
        linter.COLLECTOR, linter.EFFECTS = previous


def sort_case(sorter):
    run_sort(sorter, "uniform", SCHEMA, n_nodes=NODES, n_per_node=PER_NODE)


def dsort_recover_case():
    cluster = Cluster(n_nodes=NODES)
    generate_input(cluster, SCHEMA, PER_NODE, "uniform")
    manager = RecoveryManager(cluster, RecoverPolicy())
    manager.start()
    cluster.run(run_dsort, SCHEMA,
                default_dsort_config(NODES * PER_NODE, NODES), manager)


def groupby_case():
    cluster = Cluster(n_nodes=NODES)
    rng = np.random.default_rng(0)
    schema = KeyValueSchema()
    for node in cluster.nodes:
        keys = generate_keys("uniform", PER_NODE, rng)
        values = rng.integers(0, 1000, size=PER_NODE, dtype=np.uint64)
        RecordFile(node.disk, "kv-input", schema).poke(
            0, schema.make(keys, values))
    cluster.run(run_groupby, GroupByConfig(
        block_records=256, vertical_block_records=64, out_block_records=128))


CASES = {
    "dsort": functools.partial(sort_case, "dsort"),
    "dsort-recover": dsort_recover_case,
    "csort": functools.partial(sort_case, "csort"),
    "nowsort": functools.partial(sort_case, "nowsort"),
    "dsort-linear": functools.partial(sort_case, "dsort-linear"),
    "groupby": groupby_case,
}


def observe(case):
    """``program name -> digest`` for one case (``example:<file>`` for an
    example, whose ``repro lint --strict --effects`` lines land under
    the ``report`` key)."""
    with analyzed_programs() as digests:
        if case.startswith("example:"):
            lines = []
            lint_paths([os.path.join(REPO, "examples", case[8:])],
                       strict=True, effects=True, out=lines.append)
            report = "\n".join(lines).replace(REPO, "<repo>")
            digests["report"] = hashlib.sha256(report.encode()).hexdigest()
        else:
            CASES[case]()
    return digests


ALL_CASES = sorted(CASES) + [f"example:{name}" for name in EXAMPLES]

#: ``observe(case)`` per case, recorded from the analysis that decoded
#: stage bytecode on every scan and re-scanned each stage per use
PINNED = {
    "csort": {
        "csort-p1@0": "f4c02c0eddb0e3ffc769047105c8266585b4153040eac1cc0a6e83faaf840b70",
        "csort-p1@1": "be9c7313371d55ccde74830e0c824aedce85e5dee998b6343a23c6ad0a419e25",
        "csort-p1@2": "e623d7daa78a3cc813b42948fda2de778bd7cd5201111f7751b438f90f150bcc",
        "csort-p1@3": "e41eed7be3fff47e9a2a64364da1d1744f50ec0a26696ea3d4824d6ece1e3ced",
        "csort-p2@0": "b856f4846a1f274e1afcb5244f586e9b916ec4fe8a942794f70e3d8e86445df6",
        "csort-p2@1": "c7ab95249788f327a82d3e4689dc896aae1a80cb7e5d5af2c395a88fb8eb05a4",
        "csort-p2@2": "fcd355f023d14ffcc9b8bfb8a1b8fa4c64813a06acc728d12735b330d7f7866b",
        "csort-p2@3": "a19a84128b08f5b53f530a81b83a245e8cd5708fbf1b5c28a53b84e82d4ded4f",
        "csort-p3@0": "2a2d4959df775567f002e37634cd343da971e59df52c0ff978faf326181e7f63",
        "csort-p3@1": "272276cc75f8a946977da012fc7baae4ee354ea79e4ad3362a760696bfffb1d6",
        "csort-p3@2": "f0befc71ef3b13c2a36b066902171a055a52ec56f686a7c54f31bd273cfb3549",
        "csort-p3@3": "b76036919ceecdc767608f6557e3220fd146f0d6881353c366bb5f07d30aea7b",
    },
    "dsort": {
        "dsort-p1@0": "e76f74e75789db3aebfc18b5243a90b941878c66e25e1e153b9c951f4d893e38",
        "dsort-p1@1": "57447632fbccdabaeb0c43321c4260b569e0b54f65db9bfb0db3e00cb6c5eda4",
        "dsort-p1@2": "503dab52fc9d540807bf9d506bd74feb49c99821a23b738fc7c59ab494f307a5",
        "dsort-p1@3": "212bd986693217ed1a099793afc02227feecf0ef05fb81f294f4e90477e1885d",
        "dsort-p2@0": "74b7b036962035f1da9768c48c7eff70da83dddd6a994ede8c1a7fe4d74118fc",
        "dsort-p2@1": "2e47f7f288988aec89f719b1362234fceb18c18d5eb9115155e6b8bff59a62f2",
        "dsort-p2@2": "337354ff40c0f718258506caa2b01fc8af648ae0e83233c2901b4996a4671086",
        "dsort-p2@3": "9be3a87d02836866969dbd04296b02a64e3f6e2e37d390f6cddcbfc99f1b29da",
    },
    "dsort-linear": {
        "dsortL-p1@0": "5a7d749bb8942d5cba6b59d0ff652f633a4b0e07769f7b9ed29f334270d95571",
        "dsortL-p1@1": "9cb6a062041f83e14516503127a955338fda4302afeb133a1bfea0d69518ee36",
        "dsortL-p1@2": "e05382eb82d5681530e85e2a512d233ac15172531b49b459019bdf739811633c",
        "dsortL-p1@3": "ca3d53d5836c4cf79abeff34df22a0ac34bb6e132694e15f7f36ed67e9b8c9c0",
        "dsortL-p2@0": "90d0ddf42b84f8cba5ea9a6a873e0b1466fe03d90278ee5dba506c2f73a2851c",
        "dsortL-p2@1": "545b69cb752064d2da63483aa646790bacd95a786b2fe3a58742f5229d3424ee",
        "dsortL-p2@2": "a631ee6c5568b9c51dc106bb5ec599defa6c831c65e073f3ab6956cd495395db",
        "dsortL-p2@3": "1166398c3319508f7abb6b99c322f4f6db23f28659e7b004728f0d171b311411",
    },
    "dsort-recover": {
        "dsort-p1@0": "e995fcf073a056a2bbc85dc9c60f5d4298c708df490e913d90b90f588137082f",
        "dsort-p1@1": "5bca839ad938b7329f93c31b3a4e81981bb71a4ac26e82c4ea02f766848c28ba",
        "dsort-p1@2": "593cbf5f3dc341208af6665b9cda5d67b383c76ffc7f75863c7b18a10a03ea69",
        "dsort-p1@3": "0e84d672f51934dd240d3a1fe8a5f54285c2528477b66846bfa5f5753c49c31c",
        "dsort-p2@0.e0": "6a5bece43626aed368c3bb43ae81d0037a02a0eb8e0846f0213f9088691e83b4",
        "dsort-p2@1.e0": "e0c3d2f5bac4acc80c27bb1b239b7f3f3ea2ade23d95c8eb59f88a6874fd5e45",
        "dsort-p2@2.e0": "88048ffecaf438bb0bfc72bfac3f74d37aadb7df9e1317e3ee8e08ca3bd51039",
        "dsort-p2@3.e0": "79dec79589987085aeec92f188bfff268eb51272a95efeb9ff9266b5d56ece7c",
    },
    "example:beyond_sorting.py": {
        "groupby-p1@0": "ea47952be324086504faa94cbfac6e4894c13e50a455fc269d0580e6a58bfc0f",
        "groupby-p1@1": "d5f833c3d896ebe7e48a29379ecd9a9e87c3d2e53dced25a6253c6c8bee81817",
        "groupby-p1@2": "7c5cf28a5bd831256b152aa32ca0affedd9ad24860cd24258d3c43d78ed5f0e9",
        "groupby-p1@3": "83b152e129ce0a1ca9bc5321d5b85f58275e1b5ada6c5f58bc7163cac83231f9",
        "groupby-p2@0": "bd5c84071d574a8646b5e8496eb25523ae34baa9d1b9810674ed7692aa1262a5",
        "groupby-p2@1": "61d28b5de2c29155adadab416ae61d3c080b981707e0915c10005c813cae78c0",
        "groupby-p2@2": "c7b336856ed9ebc8d83ba60d9d4f7777061e8e781512028f31411cd9d0c5aaf8",
        "groupby-p2@3": "5c027a64cd70d20541779ae4a9433e7569d78e81cabdff808585dee3b4dc8c37",
        "report": "91db07ca6c856a62435245cae15c5af4cc341f059ece62afe70849759c1a4baa",
        "transpose@0": "b905d165e4719dcea1908762e9f8abc064c173a7710d63130b2d2ed30c1a370e",
        "transpose@1": "3d2a06cd260df9fc6154ab5c76ef5106ab7b9c94f6890150b1a3d77c60f2e1ed",
        "transpose@2": "8e5555e805d002b5d671f2dde03985554546261c3a3ca0ed77516e39458df077",
        "transpose@3": "3870d0ecc320168f35e3ad5f3252cafb5c49714bee87a8e03a4bf9deeac84052",
    },
    "example:distribution_sort.py": {
        "csort-p1@0": "2e9d1896b50365320fbddc5c112420835e38ab03efffa12a7b871094f1f6ba48",
        "csort-p1@1": "5341be2120fd5dcece0afd307d9777b32c6a860026c42dbcc9a9a9cc40319442",
        "csort-p1@10": "3a86b11a9c77fcafdee658d3de536557dc5709228924074b12943f46962b9f32",
        "csort-p1@11": "bdf7eff0d1e13fe48a1feeffffd5960b3587285b556e209af50d8ae0407255b2",
        "csort-p1@12": "74fae53970ad992966162717aae1adba0ffc42d8bdff0aeb3da6d2674357e66f",
        "csort-p1@13": "df1bc4e34ce0c6bdf8d45d868b11a93bcde513adc25d6411d83d92afd300fb11",
        "csort-p1@14": "c9a062a4fbb2990d23bdc0bfa071938a39740a57c56385cf33e49dce44825d3f",
        "csort-p1@15": "3954c1e9ab5f3ae7770816518406194473adea271dc4b95962fc4745d933681f",
        "csort-p1@2": "68f576d5f78d079d7ab54b93d63bfe149a71c37b9fccd8adf5483e5815745081",
        "csort-p1@3": "ed662e0aa641f78073155a78fd4d04064285776710ad31fb98e8f32a3c68f4c6",
        "csort-p1@4": "13ac884b857422107afd89b80a30cc1d4f844e49c3b81a0923589bfcb5b012fe",
        "csort-p1@5": "141da898a31c12bc8a993e233d0a3040dd5a294f623b5a86f8a79be0abb1307b",
        "csort-p1@6": "a2b264175c057cd8ad7cfaa2c4200d2408b89397bcaf3fe7f1c798df9ab3c8a0",
        "csort-p1@7": "678fcdb4d114a340001c0ffa71927dbe1dc611b15b3e9ae29a5bf951e3bd180d",
        "csort-p1@8": "baf7cb869e632434f65e5d1330d9da55bdc1b3b673db06d9eefd86ce6087cda9",
        "csort-p1@9": "7f9e35254f64c4773d1babb305fb35a47210379b662a4a63091c82d39a82506c",
        "csort-p2@0": "49c42a6d42292730aa703ac58fb19961f9582a435b0cdaf9e5ce91c60da6172c",
        "csort-p2@1": "9e2015141031ad11752f21f395860abc8c2ce4d177c9b536dc459d1b6a6ded7c",
        "csort-p2@10": "6ff1c045ca263193e5b192470cdd92c0719bf60215b8ede9490680d19a916f8a",
        "csort-p2@11": "cb70388d1afc4498b387312467cd4f1a5c193461951c14188daf73b813b49bcf",
        "csort-p2@12": "5c550b7f410ccc2da334733092d889fe8d494fcbb45004dd8512c4d29ef8c95a",
        "csort-p2@13": "af9c78666338e0cb8241cf9e192cb10fbf3c68ca87afd0427c8c03d2713506a6",
        "csort-p2@14": "4ad1d6351949701b01e5e7ae69e76d86bd6eca91aab078151cd15da77bca4ebe",
        "csort-p2@15": "539d20fe2b7a878713ce2fd2365e88ec5889180d68a25929d9881da40e27739e",
        "csort-p2@2": "4c33c8512ecc1384a745694d77ccbf5f963b53f9a006df45c32ebdf64e55f069",
        "csort-p2@3": "ae04f94eeede74b2be783c5283ad5778ce5d0d70807ced4f71c5cf3acd9583dd",
        "csort-p2@4": "69756e9cf393f969512e4f790c8252a85da7a784f228cb74b2d4b3414f5761bb",
        "csort-p2@5": "ba8e079f60eb4c22d0775396942410ce6636db70f89bd30a7057c8dcadaefc58",
        "csort-p2@6": "b1a26ca2998a5c00b77308bdfff55c2925eb212fd0d12758b9c385231adff52f",
        "csort-p2@7": "54a48dc0e433a4f9f7c41e1021dc9261ff035d28035c41a485f8bcbd5d60a758",
        "csort-p2@8": "5f64ab9138090704a55ff774e1dd3719aefefdd51486790f36092ea7732d7f86",
        "csort-p2@9": "ea6dccaf777d562af2f3a3c6800cc04b0cc78a522dcbff71ede30883dd0f4e2c",
        "csort-p3@0": "2959d2234b5a94743efad8c704c791cffed9c6fe2daa42469d0047026687ba5a",
        "csort-p3@1": "b16ff6cec80701f9fbd05bed635a10e3ceaa779aecc98b0ca07148432833c7d8",
        "csort-p3@10": "aa21669a57a7650002fb05c36d8cc7e6b78ba3aaf09ab1f9d851ee9832154232",
        "csort-p3@11": "dbc15d2327cd31f38c356e9866a0914b29b262b8f5e84e7589fb1d0bcfadee16",
        "csort-p3@12": "30efc49197c23c8147da66042a5944972a451bcb8b164109d15ee117b305d48a",
        "csort-p3@13": "08d4e9e7dd2a722f640b1c346d0b1468b6f5091140343e51a74d9578f9a283e3",
        "csort-p3@14": "96aca727bc872e6d1047b1268c62a8d95251d729d6d65863b2268eaa747b8f6d",
        "csort-p3@15": "7c79d285a604225b712a8486e5bd2b051d623446a915e718018c2b1ae37e165b",
        "csort-p3@2": "bb5537d971261b48a8bc1ae73be4473d4a7c8072851d40f9266a305b9d2553d3",
        "csort-p3@3": "adf869a12d495d8ac7443cb1c2a590974c44e4ecb21cc9d7216eea1e21835c9a",
        "csort-p3@4": "2bff2d91b6effa2bfc49b5a05b688e57b8f8f090776bea8d200f4f0a5c3bf109",
        "csort-p3@5": "fc085c0553b17596e420573c0fa8b12c9afe1eacc2c544f7a82a0e818a137165",
        "csort-p3@6": "5d3bf82ac8b7d0466dc161bf4566e7c808e542e0cf8c3895d32f3466d5add55f",
        "csort-p3@7": "c8a39b26d93ddad2314da51163c3c076b3bceb9d99d71bfc7a7113f4c03e59c6",
        "csort-p3@8": "13fd1acc5c1887b167cc78bbb38b0c3468c52f81c10a7573f87ef5391fd077ce",
        "csort-p3@9": "356fb5bd47f2000b04ee863b91d24e761b4d0132650a5d16d3699b826416ed6f",
        "dsort-p1@0": "766dad7ae7db2b04f0c764049d27e70c790d915a60da9e17a1aa48a99bbfd744",
        "dsort-p1@1": "bdd3739b6ea8b07304a81fcc112fda4b54091502d4867792711b1eef41923e62",
        "dsort-p1@10": "a5a9fb96e71ecb0bbf4a628d6af6081ab5765538b9dc460a56e083ae2235c77f",
        "dsort-p1@11": "76bd88527b60856895ae083bf4c3314b4ce2198453101a66f242c1df8dcdb666",
        "dsort-p1@12": "1bb2fad1c6efc868ca8d3ffb7fbe3ab178065f7190843770d96aaebdae235a07",
        "dsort-p1@13": "073a25a842cddfdf09e1eba0ff02cf541ed34c11c0bfc41233f2938ba7623ef9",
        "dsort-p1@14": "7ea944a14008bec29d27d3477bfc879d4815c183d1731005d4ba64ad140c8324",
        "dsort-p1@15": "06d7539c369eda47c5135c78b694354d9846b305268a4d9b16112ae31afd5caf",
        "dsort-p1@2": "1f5773c2d6958b04c34340d35005cb0ec52e6ac3eb5fcd16f5aa3c97925c5dea",
        "dsort-p1@3": "84220019a56244afa455753d6625aedc496a06e1fef8e4397012c044805bba56",
        "dsort-p1@4": "ec639c691caa503a8d17d29011c2d627b175f82ad1733e9f2e30164c7ef33a29",
        "dsort-p1@5": "bb2d6e140d2c76ed24da68622e1d14cbaab42a123c70606e2702b7abc4870f0e",
        "dsort-p1@6": "5217602f0639e289b1d061a477ad44e1600148c441ae1ba203c80a99c3154fd3",
        "dsort-p1@7": "2c85ff011f52023b3dab3b65f8ce8c5b9172b908b913ba11946abb1fa8249bd3",
        "dsort-p1@8": "2082157f1479ce3b346b9a93c711c415407a9c2b9ce99a0162ae0a275a85d22d",
        "dsort-p1@9": "2af13cf5d04e0793887b8ef84e4b258fa4939adc792c4e27f097572e0255568f",
        "dsort-p2@0": "d7c1b3e80a9fdcd8553a2607ad3deb2586442dead0a650b402bf725f3d741208",
        "dsort-p2@1": "d08dcd6285061a2da95b74e8f3dd3c85f2db867b524fbc31420ec6aac6659030",
        "dsort-p2@10": "c9791a948db7e83b7f063cb4a8ac2a8e79fcb1d59027ca58ca8742c6b95d2222",
        "dsort-p2@11": "67f33adcd7403d433fc1ec8afa0b49e970821aabbb5700a100758490fb2033f3",
        "dsort-p2@12": "f6954572258c1f147d962c497f2225e83fddb618f5b920bcaf6b52b49e8769c7",
        "dsort-p2@13": "4d78b33ad1c50e7fd9dfa3e790ea1bbdfb9622cc2496ae9fb1b105f5b14783f4",
        "dsort-p2@14": "91d8e77e786aa98b58d1f6463381fc686286eaac313691ee3db9226cf95ca8e5",
        "dsort-p2@15": "922958aacb3c4cc7036fde6ea2e5dc0ac32fcb2e8ecc39c0842ab6dac2e4dc4a",
        "dsort-p2@2": "6034251d86a2638853d4ae6a4a812a8dee12973ee85bdbf077dab2fc5cf9165c",
        "dsort-p2@3": "753674e5fb9dd13f4c8030d298cd8e877af325b10115151274ead68879564dc5",
        "dsort-p2@4": "e6d9f6433c37e016056c5dfff049b49ae7c91879c9b2778629bd516af0efdfa1",
        "dsort-p2@5": "cc52325889fcf0e2b4b8b6f737bf3ecd56ab3a74aa1dff150aae11b285144b81",
        "dsort-p2@6": "10a0b331e73b2c78474b0be68083113eec4667f0a36fbc7345094744be94862f",
        "dsort-p2@7": "e41d1cf801dc7271c77e52d03afd9ecaf84f48e448b2ee9c21e70ced2f78516d",
        "dsort-p2@8": "0b79f9faf5f7c881140be9c36d5edbafc0c97f985c85dee7bee67b87e61ed57d",
        "dsort-p2@9": "1013c886aa171fb0900cdd192d416050733b42fc93ac8432a399193907c6e9c5",
        "report": "3b6e7e68d61cf1df0a2832b26bc26626bb50b5d61e83d4f90d2ac56b6d44fdcf",
    },
    "example:fork_join.py": {
        "fj-demo": "18d62b975dd3c2d94bbdbb3a16336786f12fb0a816e3c882c7d845aa16fb1253",
        "report": "858be850c97ced369607423744165b4bb997640176fe42589a32acc585f40e33",
    },
    "example:merge_streams.py": {
        "fg": "549686883015c9ee5eb56a7e87a4ab0443ba57febc3e4badfb6e489b754f79a9",
        "report": "56a25808a66511f58ed2ca1c45ee1f404847c04f82b2fc19cf5319958cc7892f",
    },
    "example:quickstart.py": {
        "fg": "1a3e47bf0c4d08ee815b910bb47d261725b450b09c6d7bd2207a84207b00d8d4",
        "report": "0db822cccbc667a638b1f39314bda1302a089577a828e6a9ac00b88a95e3d5fd",
    },
    "example:real_files.py": {
        "fg": "66d2d8cdf01f649449614d8b0fdf67ad7d7c4c1daf934d30fb4f212025dfd1a1",
        "report": "05f7cd1e2041e125204648d33c34021a4682a7c87ddb4fd1b4ec0c0510814db4",
    },
    "example:trace_pipeline.py": {
        "demo": "4ea1e7d2b4a0487af152773c805ae83c0db7c913a7e55aaf6d69a036cde2280b",
        "report": "fbe3540d57f6fc31a43f21cc08588a000d7b2481b91269baa92cd9fa96eac52e",
    },
    "example:unbalanced_exchange.py": {
        "report": "fc86096a5cd7c0a2f122f04a067a56dd38bca4fedea6ebe9868a129b236799de",
        "xchg@0": "3b0912641f08139db2b4b0326c2befb1dc20ec98f229265f93ad7b80bc8cfa89",
        "xchg@1": "cc530dff4261bbc3688b33a5fead99e514c5fa08d510a7b693b2ea62f8d67dab",
        "xchg@2": "f8f29d6d36aee22a36f256dc783e2bad24e16afe5e373ca6347df72209ec119f",
        "xchg@3": "dfb52634c63f1051d89a2e49a33374bdfb40bc8ca9cef6c941f92806642abb5f",
    },
    "groupby": {
        "groupby-p1@0": "d900f0123f2d81378293ec9aebc313439d82b026c9dab29f58a1e9586ea50c23",
        "groupby-p1@1": "f54ffb67136e5cced126feee707cd4ceb6f872f494870c21787cc0a33b82a206",
        "groupby-p1@2": "df8ef19e2abf6c4c75562d4a7d619c3632c8418b10f816da6ed6bbe5d80e18c1",
        "groupby-p1@3": "86614ec6a83c3e06d99968d18903d9962589cefb153dbd687fbde876d1599712",
        "groupby-p2@0": "6f119f931840af88c0b8f4c533e3e837c973a06be586d719f849b4e69ec867d8",
        "groupby-p2@1": "e3a175e60b734fc28f4cf7d29ee5a7726a14aad3d9770f91950bf4e7ff093e2f",
        "groupby-p2@2": "8b66564c0698b34e776a170af42f66ddb1211370e63bcad3da9c9075ff025b6d",
        "groupby-p2@3": "b58b9deb017e3e7bc462b1784df1d2c414631fdbe5c3a6839bcf2e7cdf5a8b66",
    },
    "nowsort": {
        "nowsort-p1@0": "cf2d2495a69846e0762a06a5dbc7fa704d2ce37312cefe92e02606d800f13c9f",
        "nowsort-p1@1": "bbb563eb34ac2a3f5fc6e0b3e431548c8fb04c03330ffad007cf217fdac78104",
        "nowsort-p1@2": "fb7b71d2718e6f2152792b1e3e876e12e70502d16151e79a60ef116b134de30e",
        "nowsort-p1@3": "c2388a80530b72217644ca6c70e5c1105c2ec1eb7d4230dd457c84f7d04881b8",
        "nowsort-p2@0": "0ca477b35d5d6792eb908ba2a4ec86df88b4d2e347634841cecde2940d96fd98",
        "nowsort-p2@1": "f24a0e707fbf6f0be0dad0fd8a01e2e4d488c8ced6999cf5dfe7b80d20df00d2",
        "nowsort-p2@2": "9491fc20e3f88cb199460cdc7b2b51861d793cadf7c018948b3aa6b58403c66c",
        "nowsort-p2@3": "88d57a437258ba76c700c5ebba5e00992dfd75f1c846ec6b12892b94e09ea49c",
    },
}


@pytest.mark.parametrize("case", ALL_CASES)
def test_analysis_matches_pinned_digests(case, tmp_path, monkeypatch):
    # the pins are of the static analysis, taken in the default mode
    # whatever mode the suite runs in (REPRO_RACE=1 in particular stops
    # dsort-linear at runtime, on its exchange_done flag, after the
    # analysis ran; test_analysis_once covers start() under FGRace)
    for var in ("REPRO_LINT", "REPRO_LINT_IGNORE", "REPRO_RACE"):
        monkeypatch.delenv(var, raising=False)
    # some examples write their artifacts into the cwd
    monkeypatch.chdir(tmp_path)
    assert observe(case) == PINNED[case]
