"""Bitstream digests: every byte ``repro encode`` writes and ``repro decode``
reads back, pinned by SHA-256.

The serial-vs-process identity checks compare two paths through the same
kernels, so a kernel change both sides share (an ME tie broken the other
way, a rounding moved in MC) passes them. These digests do not: any change
to a motion vector, a mode decision, a level or a reconstructed pel moves a
stream's hash. The clips are small enough to run in about a second, and one
is 352 pels wide so that the CIF-width search batches run.

A digest that moves is a behaviour change. If it is meant, say why in the
change's notes and paste the new value; never regenerate the table blindly.
"""

import hashlib

import pytest

from repro.cli import main
from repro.codec.config import CodecConfig
from repro.codec.decoder import SequenceDecoder
from repro.codec.stream import StreamEncoder
from repro.video.generator import moving_objects_sequence
from repro.video.yuv import write_yuv420

#: ``(width, height, frames)`` of the clips, rendered with seed 3.
CLIPS = {"96x64": (96, 64, 6), "352x32": (352, 32, 4)}

#: ``(clip, coder, search-area side, references) -> (encoded, decoded)``.
CLI_DIGESTS = {
    ("96x64", "lite", 8, 2): (
        "b8fa4d1e5c75c42b337b3110592e33877d186d301860c61e432b973debf1578b",
        "7891918ef357fdb8648db5c7c9b133bb45e11f1ffbc7f3655a2641a689e2577b",
    ),
    ("96x64", "lite", 32, 1): (
        "2e8999667a20011457364906015bf14ee1ab6aebbc4099189d4381c8800dadfa",
        "d50a98c0849f9ba9c84b86733f40860521fa26f059d26a708a7182588e570b7f",
    ),
    ("96x64", "cavlc", 8, 2): (
        "a0f816f64baf2df1f065c24ed8db524a9c1129a7c431927aaa0057b233e2a02e",
        "9fe6813aa4c305426e3b65345c8d2b70aba1ce7441c04a840dae7c70d7a3dc07",
    ),
    ("96x64", "cavlc", 32, 1): (
        "59b3ac70fa3b82e0dbb250107f88fd4264be4474ef1a2b8bfab7ba891e721623",
        "8433b2d42129c508a60b1439d1d027f2000d63465313f7d1d280ac47d2aab8b7",
    ),
    ("352x32", "lite", 8, 2): (
        "c57aca128dd71b3ae5430a0e736497cbd01b53f8ad284b3f4e22843a8d9d4394",
        "9028ed0a5e05791263f8c9ab555deb7ea66eac3748c24f83eb10fd35683f1295",
    ),
    ("352x32", "lite", 32, 1): (
        "8fa1c47c5742f2191e5013a3e0e1a542f495edb4736f40203b3af3ec2597915e",
        "10399dda10ddb5486c360ab5f2bff9050287018be9b5c0449b463b881cc137d1",
    ),
    ("352x32", "cavlc", 8, 2): (
        "59bc2a08696100371a61fc5db9c10c5e81b8475a9b0141e5e3ff500542e101ee",
        "0dfa0e33edbe880567b12235eaf18ce129f1f707c1c90c66390d162045bf9ee8",
    ),
    ("352x32", "cavlc", 32, 1): (
        "b46c061eda5a84cb6a128fd47df59ed5ae262325783f3e647be3d3124c9c23b8",
        "dae32056000db2c7ae7c0dcaa3082f873bb0e76cecb839569e81a172aa5d632c",
    ),
}

#: The periodic-intra GOP (``gop_size=3``) on the 96×64 clip: SHA-256 of
#: the sequence header and packets, and of the decoded planes.
GOP_DIGESTS = (
    "15fbe83854910d4939e2797cc091912252432b8c72719b5f7c4c16a28377913a",
    "6afe366618196726d32ee366853eb07c09f94b2e84b8bcedbc650ce237226196",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    """Each clip written once as a raw YUV 4:2:0 file."""
    out = {}
    for name, (w, h, n) in CLIPS.items():
        path = tmp_path_factory.mktemp("clips") / f"{name}.yuv"
        write_yuv420(path, moving_objects_sequence(width=w, height=h, count=n, seed=3))
        out[name] = path
    return out


@pytest.mark.parametrize("clip,coder,sa,refs", sorted(CLI_DIGESTS))
def test_cli_round_trip_digest(clips, tmp_path, capsys, clip, coder, sa, refs):
    w, h, _ = CLIPS[clip]
    stream, recon = tmp_path / "o.fevs", tmp_path / "r.yuv"
    assert main([
        "encode", str(clips[clip]), "--size", f"{w}x{h}", "--out", str(stream),
        "--coder", coder, "--sa", str(sa), "--refs", str(refs),
    ]) == 0
    assert main(["decode", str(stream), "--out", str(recon)]) == 0
    capsys.readouterr()
    got = (sha256(stream.read_bytes()), sha256(recon.read_bytes()))
    assert got == CLI_DIGESTS[(clip, coder, sa, refs)]


def test_periodic_intra_gop_digest():
    w, h, n = CLIPS["96x64"]
    cfg = CodecConfig(width=w, height=h, search_range=4, num_ref_frames=2)
    enc = StreamEncoder(cfg, gop_size=3)
    header = enc.sequence_header()
    dec = SequenceDecoder.from_header(header)
    stream, planes = hashlib.sha256(header), hashlib.sha256()
    for frame in moving_objects_sequence(width=w, height=h, count=n, seed=3):
        _, packet = enc.encode_frame(frame)
        stream.update(packet)
        rec = dec.decode_packet(packet)
        for plane in (rec.y, rec.u, rec.v):
            planes.update(plane.tobytes())
    assert (stream.hexdigest(), planes.hexdigest()) == GOP_DIGESTS
