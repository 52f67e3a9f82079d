#!/bin/sh
# End-to-end command-line pipeline in a scratch directory:
# generate -> fit (with a wire trace, in process and over sockets) -> infer
# -> refit to a tight tolerance -> exact inference -> montecarlo.
set -e
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

echo "== generate =="
vfem generate --n 1500 --clients 3,2,2 --rho 0.3,0.5,0.2 --seed 11 --out data

echo "== fit (federated, in-process transport, traced) =="
vfem fit --data data --engine federated --transport inproc \
    --trace trace.log --out fit.json
wc -l trace.log

echo "== fit again over loopback sockets: the same trace, byte for byte =="
vfem fit --data data --engine federated --transport socket \
    --trace trace_socket.log --out fit_socket.json
cmp trace.log trace_socket.log && echo "socket trace identical"

echo "== infer (sketched standard errors) =="
vfem infer --data data --fit fit.json --out infer.json --stats sketch --seed 1

echo "== refit to a tight tolerance, then exact standard errors =="
vfem fit --data data --tol 1e-12 --out fit_tight.json
vfem infer --data data --fit fit_tight.json --out infer_tight.json --stats exact
echo "tight refit inferred"

echo "== montecarlo =="
vfem montecarlo --reps 5 --n 400 --clients 2,2 --rho 0.3 \
    --methods vfem,cc,impute --seed 2 --out mc.csv
