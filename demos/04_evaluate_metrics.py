#!/usr/bin/env python3
"""Evaluation harness tour: native metrics, the scorer protocol, and reports.

Scores a handful of candidate stories against gold captions with ROUGE-L,
ChrF++ and CLIPScore, then plugs in a stub external scorer over the
newline-delimited JSON TCP protocol to fill the model-based columns.
"""

import json
import socketserver
import tempfile
import threading
from pathlib import Path

from ppst.encoding import HashedNgramEncoder
from ppst.metrics import chrf_pp, clip_score, evaluate_run, external_score, rouge_l, tokenize
from ppst.synthetic import render_text_image

# 1. the native metrics, straight from the formulas
cand = "police kill the gunman"
ref = "police killed the gunman"
print(f"candidate: {cand!r}  reference: {ref!r}")
print(f"  ROUGE-L: {rouge_l(tokenize(cand), [tokenize(ref)])}")
print(f"  ChrF++ : {chrf_pp(cand, [ref]):.4f}\n")

encoder = HashedNgramEncoder(embed_dim=64, n_buckets=512)
with tempfile.TemporaryDirectory(prefix="ppst-demo-") as tmp:
    image = render_text_image(Path(tmp) / "cat.pgm", "a red cat on the table")
    image_emb = encoder.encode_image(image)
print(f"  CLIPScore vs matching text: "
      f"{clip_score(image_emb, encoder.encode_text('a red cat on the table')):.3f}")
print(f"  CLIPScore vs unrelated text: "
      f"{clip_score(image_emb, encoder.encode_text('squad throttle crossfire')):.3f}\n")


# 2. a stub external scorer speaking the wire protocol
class Handler(socketserver.StreamRequestHandler):
    def handle(self):
        request = json.loads(self.rfile.readline().decode())
        scores = [{"id": item["id"], "score": 0.5 - 0.01 * i}
                  for i, item in enumerate(request["items"])]
        self.wfile.write((json.dumps({"metric": request["metric"],
                                      "scores": scores}) + "\n").encode())


server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, daemon=True).start()
endpoint = "%s:%d" % server.server_address
print(f"stub scorer listening at {endpoint}")
scores = external_score(endpoint, "BERTScore", [("demo", cand, [ref])])
print(f"  round trip: {scores}\n")


# 3. a full report for a tiny run
class Row:
    def __init__(self, image_ref, story_text):
        self.image_ref = image_ref
        self.story_text = story_text
        self.style = "demo"


captions = ["a red cat on the table", "a blue bird on the roof", "a dog on the grass"]
rows, references = [], {}
with tempfile.TemporaryDirectory(prefix="ppst-demo-") as tmp:
    for i, caption in enumerate(captions):
        path = render_text_image(Path(tmp) / f"img{i}.pgm", caption)
        rows.append(Row(str(path), caption if i else caption + " sleeping quietly"))
        references[str(path)] = [caption]

    report = evaluate_run(rows, references, encoder=encoder, scorer_endpoint=endpoint)
print(report.to_table())
server.shutdown()
