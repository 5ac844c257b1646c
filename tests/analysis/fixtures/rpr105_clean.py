"""RPR105 clean twin: module-level entries, picklable by name."""

from repro.engine import pool as pool_mod


def solve_tile(job):
    return job


def run(pool, jobs):
    return [pool.submit(solve_tile, job) for job in jobs]


def run_pkg(pool, jobs):
    return [pool.submit_call(pool_mod.solve_tile, job) for job in jobs]
