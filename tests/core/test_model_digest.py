"""Model-mode digest pins: the simulated schedule, to the last digit.

Each frame of eight model-mode setups is reduced to one SHA-256 over
what a refactor of the scheduling path must not move: the timeline's
records (label, resource, category, start, end, with floats by
``repr``), τ1/τ2/τtot, the ME/INT/SME distributions, the frame's
fault-log entry and its ``fault_time_lost_s``. Four setups draw
load jitter, so the order in which op durations are sampled is pinned
too. The first four setups' constants were computed before the DES
stopped carrying kernel thunks, the last four's before the coding
manager kept its op graph across frames: they are runs in which a
repeated plan breaks mid-run (each fault kind without jitter, capacity
shares moving under a kept decision, references ramping under repeated
rows, a σʳ backlog moving under one decision object). All must hold
unedited across any change that claims to keep model mode's numbers.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.equidistant import run_equidistant
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule, GaussianJitter, NoiseModel
from repro.hw.presets import get_platform
from repro.service import EncodingService, ServiceConfig, StreamSpec

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=2)
SLICED = CodecConfig(
    width=1920, height=1088, search_range=16, num_ref_frames=1,
    num_slices=4, deblock_across_slices=False,
)
FAULTS = FaultSchedule([
    FaultEvent(frame=3, device="GPU_F", kind="hang", duration=2),
    FaultEvent(frame=5, device="CPU_N", kind="degrade", factor=2.5, duration=3),
    FaultEvent(frame=7, device="GPU_F2", kind="dropout"),
    FaultEvent(frame=9, device="GPU_F", kind="copy_fail", factor=3.0, duration=2),
    # The fallback (first survivor) precedes the faulted CPU in device order.
    FaultEvent(frame=10, device="CPU_N", kind="hang", duration=1),
])
FRAMES = 12


def jitter() -> NoiseModel:
    return NoiseModel(jitter=GaussianJitter(sigma=0.05, seed=7))


def frame_digest(report, log_entry=None) -> str:
    d = report.decision
    blob = (
        [
            (r.label, r.resource, r.category, repr(r.start), repr(r.end))
            for r in report.timeline.records
        ],
        repr(report.tau1), repr(report.tau2), repr(report.tau_tot),
        d.m.rows, d.l.rows, d.s.rows,
        None if log_entry is None else sorted(log_entry.to_dict().items()),
        repr(report.fault_time_lost_s),
    )
    return hashlib.sha256(repr(blob).encode()).hexdigest()


def fw_digests(fw: FevesFramework) -> list[str]:
    return [
        frame_digest(r, e) for r, e in zip(fw.reports, fw.fault_log, strict=True)
    ]


def framework_digests(platform: str, cfg: CodecConfig, **fw_kwargs) -> list[str]:
    fw = FevesFramework(get_platform(platform), cfg, FrameworkConfig(**fw_kwargs))
    fw.run_model(FRAMES)
    return fw_digests(fw)


def service_digests() -> list[str]:
    """Three staggered 1080p streams on one SysHK service: the capacity
    shares move between rounds, also under a decision the balancer keeps."""
    svc = EncodingService(ServiceConfig(platform="SysHK", headroom=4.0))
    svc.run([
        StreamSpec("a", n_frames=6),
        StreamSpec("b", n_frames=4, arrival_s=0.05),
        StreamSpec("c", n_frames=2, arrival_s=0.12),
    ])
    return [d for s in svc.sessions for d in fw_digests(s.framework)]


def fixed_decision_digests() -> list[str]:
    """SysNF with R* on the CPU, every solve answered by one decision
    object that defers SF rows (σʳ > 0): from frame 2 to frame 3 the
    DAM's σʳ backlog is the only plan input that moves."""
    slow_link = FaultSchedule([
        FaultEvent(frame=3, device="GPU_F", kind="copy_fail", factor=6.0),
    ])
    probe = FevesFramework(
        get_platform("SysNF"), CFG, FrameworkConfig(centric="cpu", faults=slow_link)
    )
    probe.run_model(5)
    decision = probe.reports[-1].decision
    assert decision.sigma_r["GPU_F"].rows > 0
    fw = FevesFramework(get_platform("SysNF"), CFG, FrameworkConfig(centric="cpu"))
    fw.balancer.solve = lambda **_: decision
    fw.run_model(FRAMES)
    return fw_digests(fw)


def policy_digests() -> list[str]:
    runner = run_equidistant(
        get_platform("SysNF"), CFG, FRAMES, include_cpu=True,
        fw_cfg=FrameworkConfig(noise=jitter()),
    )
    return [frame_digest(r) for r in runner.reports]


SETUPS = {
    "SysNFF_clean": lambda: framework_digests("SysNFF", CFG),
    "SysNFF_faults": lambda: framework_digests(
        "SysNFF", CFG, faults=FAULTS, noise=jitter()
    ),
    "SysHK_rstar_parallel": lambda: framework_digests(
        "SysHK", SLICED, rstar_parallel=True, noise=jitter()
    ),
    "SysNF_equidistant_policy": policy_digests,
    "SysNFF_faults_clean": lambda: framework_digests("SysNFF", CFG, faults=FAULTS),
    "SysHK_service_staggered": service_digests,
    # One device: the rows repeat from frame 1 while the active references
    # ramp 1 -> 2 under them.
    "CPU_N_ref_ramp": lambda: framework_digests("CPU_N", CFG, noise=jitter()),
    "SysNF_fixed_decision": fixed_decision_digests,
}

PINNED = {
    "SysNFF_clean": [
        "a968a2ed930a557ab1baa76be6aced14c220087da25d7cf7a885b32a50f263b9",
        "8a5ed4a37ba2c4d86a0a827d799a46ae56f22699053774e4d0040249e1809b31",
        "3dd37fc61f264f8f2132c1fed7b28a44b89be8ad12b2a5d04a9e95cc4a328ae5",
        "3a46eb884ceec1bc44ec0ae83e738b9104b066813ffdb4ab1b6d0d2fc2121c60",
        "15d91400ca5b1e80bcb3fc7b48cdc93007dea44a40768d87998768510a27f0af",
        "cd5ce466763d28894c3a7e26b090792e8ad6057381ecff5da8c6f04a7ac3e7fe",
        "ebffa1cbbe96b649d4f4cc837ef105a832b1d161aced8d44ee914203d3ce4e32",
        "93fca2bd4eb6e7ab50d221bdd7784808e6a8c857262074a270e96c987b96bfcd",
        "840e23dc546e309e88ad9e8ea549dd67c1bf8420c0ac8cf4364b8ed8db79c539",
        "613ab5abb3f9844371dd118d7ae2d82cc2068b8465c30ef6efde07cc35837667",
        "0bdaa2bc505898162b5c9ed27abe3746a42273baa067e47b995844e196659aa1",
        "c20b58dce6576e0aafcbfe271af2ae9fe2537abcd6ac50ce3703d9681e2280e8",
    ],
    "SysNFF_faults": [
        "cc334a4523973984d52d5a4a46fa8f55610f5db0d192c4832e1d37a90ed78838",
        "00955847fda701e234eec296db2510787999c295613b23e53f3c3e9fddfac85f",
        "667d6b5adffea34211f325de03939f8439fe2f4fed4047b12c7ec28b3f135238",
        "ca59f0c19a026173f2cc40eaae998ca195928451eb3a8d2504a4ae4599d9e1d8",
        "619101745aefab019f7a7f7459f163d26599451caa4a25e58f4a616479c3e697",
        "d573b90230e9c8589aea9d368376c12c949034935831832c8270f86f4cd5e3ad",
        "36feec7ea622db30b3880a802c96d1935876c7c1aa6bfb6d2aab57881285416d",
        "968aed696083cf9a903d637919cd3f21658fc7c818128e65ace09d2dec99bdee",
        "45e8388c6d2466a9474174d571a4768ae3e66a35e9f871d492ef2ceb5a4b1204",
        "0c815459add22cc5901ba053cc9d88695b1fe60f6d3241a89e4c776055a1b34d",
        "cbeb14f5bd99b0667e5e26388f0dcd91a77870d2923944ceba6c17807156bff7",
        "73005e0a45c3a8efb60429a70ec051e39e0e3d95afab8b74ab27d7f6452ac569",
    ],
    "SysHK_rstar_parallel": [
        "3946c6e0f6dc4022c449a32f7c057ef5b53a5ec4e3ecd746b897323363db446d",
        "8ddb49eb2d18b03a5a414db7f9897cd69fc857bf4a3f91bec8b3ff7479051eee",
        "960c48487ea55af50612b35514f8f84ff3928a883d76e9481918b73defafe7ac",
        "f1b0154efbc5e078b7fd1a19c7914a76ec01438e0d40b3e7e6be4f1a0e30015c",
        "fa124ea33d8e7cb39f8d70d17a51690f46affce3da4abccf8e6c851c2567a10f",
        "210f8949c794a4b0978005d61223ea5cf2b904010dec093ebc0c106caac615b0",
        "99835711ea7d82cda416c562c94f1d8b6b5dc19e039237938991a9a8bf991d78",
        "4853b83b171e6a7eade7f8ae7d6863841e2a40790ee9ff1cb34729d82ee387e1",
        "7a0f962d13c2fe00ae02e5c954ccfa63ed452abb5670630422926ad26b36ee94",
        "9a5eb3743fc5083db3cdd86e073bc97ffd49f11764f37a9ce97412c2760b3bfc",
        "7fdd1f97415870ec33fb1e8466ad74d6264c64b162bf27e1fbf04cd86554a340",
        "0b3372176c1200b152ff9f9a80ef7512d72e0a85e063fd30f2df109c66373c21",
    ],
    "SysNF_equidistant_policy": [
        "a92f0bab7563d7ff5746bb5beffda878c108226ff5728fb38b9173bb2ad3ed2d",
        "e659bd8caf25732b68799b1b4134eb55dc5eb7f5b224014523e0958560bbde4a",
        "58388ce2e2656a369d6ac83b4a791e100b053a0156d1944126c1d29392cdb0b5",
        "57a583bb9319fb61dba0076400ded2bea21e230e83e2478e426f31a0efca9fd9",
        "909037d2ce3dcabdabea7ea8822fc504b3bb1ab0fc4fd9d852e17cca6a4ee9f2",
        "625a8df4b53dd658c4634bb58a6af4c323dab6b5f5f83742535029c78569d235",
        "54410919bd3f111b30aac3d1f0f37197f44ac6273f8d42728335988e5b416901",
        "00976eafda246b435f2375bca9b8721ad7db8d2d2c68abc6e56c79503a979dda",
        "d489c2a551a96d1c078ce8f8b9621c9372fa873c857ba423a7697f90f5ac0e6a",
        "b440b7def904f0c3ec9c891921c8ebf1ef02a1fcf98d41e22065c6e1909f636f",
        "6c6130894fd61e2ba85470d2a48492bcd30c377d1027cf5bbe63e6cbb69c6400",
        "e7e21e0521507a8f46d70f6af92c7c771f5bfa1f7d98e33414ac43b79d8927c8",
    ],
    "SysNFF_faults_clean": [
        "a968a2ed930a557ab1baa76be6aced14c220087da25d7cf7a885b32a50f263b9",
        "8a5ed4a37ba2c4d86a0a827d799a46ae56f22699053774e4d0040249e1809b31",
        "445e1e6f91a54ba314778811b03c5ee3cc81ae82c262447920dc312aeeefeabe",
        "1fabc7d20592a0c350245e6719c9d1b86d7fe8624b8ef4176aa765c3431c982b",
        "655d16188efc10a1adf2c1f26b0cae7a9eee8f5248c2e235040c970f9fc94a30",
        "fb72dd98ff76c1ff7de495f597f2e62e87948cfe77b23a712dfe428663867a84",
        "a221aea3934a08d9ab0f60e970e28062ca572f8c5adfeea61a77c2f4d2c0278f",
        "cf508d8e09f12f5c4fdb5815b97b512afff7a3ab30ea1c3585a3f4427c9045fe",
        "aa99d6de96ae12348eb91ef7ac0df760b2ad4077f0b5ef4f29530622b8137b2c",
        "280629d4f0c595ee7717bce0f853556518ae5829d6e9f6ef1738c9fa79dbffdc",
        "c92b5f9c8b066e68c3e01d945ba1ed108c07b8f3e9a5a41889d2393e81fac155",
        "599755426dc3e51bdb02184f7c40c3db8c63e47a6f7c59ffca5db42e0b5d2989",
    ],
    "SysHK_service_staggered": [
        "e1f0568ec038fe2d412bd245271c162d53e00b82aec545616cd94fc2c41fecc2",
        "42956cfd50757209facbdb1dc7d731adf40b7b40d1ca45adb63c70d2eb655d81",
        "1a158b9f7a795e408b351655efd55eef94b2e18fd8a690ba1da0aa27bb07df5f",
        "c7e0aafff6c4810bae9c8547fe92582aaa71ea07515dff317219d84b118a1ee4",
        "a1d06042fb07bc942f9eab56ba03eda14664ad230d071b818804da0ab4434a68",
        "1b89ea026e2720ed22bb92fc4d1d36d1a098e7bc2d7ddf55f51934419b6a4738",
        "e1f0568ec038fe2d412bd245271c162d53e00b82aec545616cd94fc2c41fecc2",
        "42956cfd50757209facbdb1dc7d731adf40b7b40d1ca45adb63c70d2eb655d81",
        "c9540f6494f7a61c5c41aba60e89e9854d880d00dfdd7fec56494c390965a3f4",
        "9b602d638d5ebf3234712f32df90f24a40a089777ae167b7c8d9f509df4709fd",
        "e9cee74768640f1aa166561a0be96729b3e3bee32facd1b3b7949f1d4e496cf8",
        "19592f911c2b7f1bd641365895955310580ee1d5816d14660fbb8937a939ecb7",
    ],
    "CPU_N_ref_ramp": [
        "bd790288af15642a1f52e50e2659e36fd1313dbf4a589b86af8f0b21cb73e78e",
        "deca74fcfa14d5cbc64678c14261b0ef89049570f6d9a8e996e72b18618e3db0",
        "b816f736635eeb4268be72c2a3725d147da8d3625c40e11a6f4ba45d19f159af",
        "e5d3aaaf7b44bfca5387627746318530ea10ccff0971d84bcac101f42c25a40c",
        "aed19968ff7ec2d940b7a1d6f1afb1c2e807e26bc6a00937a7c33fe35fd3d73f",
        "ed02bcd6bedc0736d39690eabc028d818a90751dfdf79482b54f74ba5a52644b",
        "d7ecaf0a5c2dbd9cecd02c146580cf72c231997f9806856c144aaa959a152e8d",
        "01438d6cad41908643352fd0ae812f9946f127e33106aa30424a2c965f0e7b82",
        "d3e95014ed0e19764b2b878bae287a6cf053780ef165a743db3ccb5325c55c63",
        "8d9cf882fccc5b9ccc1bc635eee288e59a0f59f5c4bdb6c7e1d3f8a13b2febf5",
        "7c61831b971db7f532abff3c519b42b7b5d7b6e8e863d3443160a93f1d4954a4",
        "50bd8742be17965c97d189b80452f99ddaedddf9b4a1fa0c4bf56f16f7117fa6",
    ],
    "SysNF_fixed_decision": [
        "19f121ed525f56a7a3581040e15ddd4d1777c52474f409e928aa53c97f1a63ad",
        "c593791cbbf4e77173335fa5863097dfa96782c1ab6094e9c38048c8ed07e346",
        "301226175a85ed0f9304c5fcb3f2f9c83a9cc7b0e604555898b56f4114ebaf1d",
        "968be2b5b344e4dabff2eadc151d64e81e273f8a3b8c3c8a3a268310469dd52f",
        "aab460530b6c8d2905133b21afa363ebc0c5241610e055fb940ce5ce4da9408e",
        "cd041605c7ec06a83f107cba80dd054d62d7122f2761dce7db888ebce7fbfc11",
        "f4b646a38ef7069319cdb4ae7809675894d76a4f3177031290fa3102149a49ce",
        "564d16f17c3ea76fb2b8ccf735bf6f7c859e0b6f58ed2bc6edffd93a814c554b",
        "54f1da24866e08a86b8220891d35bd800f2b0981e73d288533a0cd137031787e",
        "7593e20a59d2bf83c4a4c2866caf6815290316808858d6c4b7f35f02d8fb8afb",
        "1b00c54e1d8024771c09e2aa5ff6763c0dbf299e2465e0c9a7186938b850df6c",
        "c3a711846a48e384fe258241aaf96ad8c6e1b29efb46e15ab0265b9cc26570cd",
    ],
}


@pytest.mark.parametrize("setup", list(SETUPS))
def test_model_mode_digest_is_pinned(setup):
    got = SETUPS[setup]()
    assert len(got) == FRAMES
    for k, (a, b) in enumerate(zip(got, PINNED[setup], strict=True), start=1):
        assert a == b, f"{setup}: inter frame {k} moved"
