"""C source for the optional native fastpath kernels.

Kept in its own module so :mod:`repro.fastpath.native` stays readable;
the text below is compiled on demand with the system C compiler (see
``native.build``).  Two kernels live here:

* ``sim_scan`` — a full transcription of
  :class:`repro.fastpath.simulate.StreamSimulator.feed` over one trace
  chunk, with every piece of carried state (scoreboard, BTB, cache
  tags, issue counters) owned by caller-provided buffers so chunk
  boundaries and snapshots behave exactly like the Python scan.
* ``emu_new``/``emu_run``/``emu_free`` — a resumable micro-op
  interpreter over the flat :class:`DecodedProgram` image with the
  same observable semantics as ``repro.fastpath.interp`` (wrap-to-32
  arithmetic, dynamic int/float typing, guard nullification,
  predicate truth tables, speculative-op behaviour, trace event
  stream, block/branch profile counting with first-occurrence order,
  fault codes at the exact serial fault points, and the store-stream
  signature folded with CPython's own hash).  It suspends when
  the trace chunk buffer fills (``EMU_CHUNK``), letting Python drain
  the chunk and resume — which is how both the streamed (sink) and
  collected trace modes are produced byte-identically.

Programs whose serial execution would die with a Python *type* error
(e.g. integer ops on float registers) are outside the contract: the
toolchain never emits them and the differential harnesses would crash
on the oracle side first.
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ---------------------------------------------------------------- */
/* sim_scan: StreamSimulator.feed over one chunk.                    */
/* ---------------------------------------------------------------- */

/* ptrs layout (see native.py _SIM_PTRS):
   0 c_sidx i32[n]   1 c_flags u8[n]   2 c_addr i64[n]
   3 pc_addr i64[S]  4 lat i32[S]      5 flags u8[S]   6 pred i32[S]
   7 used_off i32[S+1]  8 used_idx i32[]
   9 dests_off i32[S+1] 10 dests_idx i32[]
   11 ready i64[nregs]
   12 btb_tags i64[E] 13 btb_ctr u8[E]
   14 ic_tags i64[]   15 dc_tags i64[]
   16 st i64[14]
   cfg layout:
   0 n  1 btb_entries  2 btb_bubble  3 ic_lines  4 ic_linebytes
   5 ic_pen  6 dc_lines  7 dc_linebytes  8 dc_pen  9 perfect
   10 width  11 branch_limit
   st layout:
   0 cur 1 slots 2 bslots 3 fetch 4 membusy 5 dynamic 6 executed
   7 suppressed 8 branches 9 misp 10 ic_acc 11 ic_miss 12 dc_acc
   13 dc_miss */

#define F_CONTROL 1
#define F_LOAD 2
#define F_STORE 4
#define F_DYNBRANCH 8
#define F_JUMP 16
#define F_MEM (F_LOAD | F_STORE)

void sim_scan(const int64_t *ptrs, const int64_t *cfg)
{
    const int32_t *c_sidx = (const int32_t *)ptrs[0];
    const uint8_t *c_flags = (const uint8_t *)ptrs[1];
    const int64_t *c_addr = (const int64_t *)ptrs[2];
    const int64_t *pc_addr = (const int64_t *)ptrs[3];
    const int32_t *lat_tab = (const int32_t *)ptrs[4];
    const uint8_t *flags_tab = (const uint8_t *)ptrs[5];
    const int32_t *pred_tab = (const int32_t *)ptrs[6];
    const int32_t *used_off = (const int32_t *)ptrs[7];
    const int32_t *used_idx = (const int32_t *)ptrs[8];
    const int32_t *dests_off = (const int32_t *)ptrs[9];
    const int32_t *dests_idx = (const int32_t *)ptrs[10];
    int64_t *ready = (int64_t *)ptrs[11];
    int64_t *btb_tags = (int64_t *)ptrs[12];
    uint8_t *btb_ctr = (uint8_t *)ptrs[13];
    int64_t *ic_tags = (int64_t *)ptrs[14];
    int64_t *dc_tags = (int64_t *)ptrs[15];
    int64_t *st = (int64_t *)ptrs[16];

    const int64_t n = cfg[0];
    const int64_t btb_entries = cfg[1];
    const int64_t btb_bubble = cfg[2];
    const int64_t ic_lines = cfg[3], ic_linebytes = cfg[4];
    const int64_t ic_pen = cfg[5];
    const int64_t dc_lines = cfg[6], dc_linebytes = cfg[7];
    const int64_t dc_pen = cfg[8];
    const int perfect = (int)cfg[9];
    const int64_t width = cfg[10], branch_limit = cfg[11];

    int64_t cur = st[0], slots = st[1], bslots = st[2];
    int64_t fetch = st[3], membusy = st[4];
    int64_t dynamic = st[5], executed_n = st[6], suppressed_n = st[7];
    int64_t branches = st[8], misp = st[9];
    int64_t ic_acc = st[10], ic_miss = st[11];
    int64_t dc_acc = st[12], dc_miss = st[13];

    for (int64_t i = 0; i < n; i++) {
        const int32_t si = c_sidx[i];
        const uint8_t fl = c_flags[i];
        const int64_t mem_addr = c_addr[i];
        const uint8_t f = flags_tab[si];
        const int executed = fl & 1;
        dynamic++;

        int64_t earliest = fetch;
        if (!perfect) {
            /* Instruction fetch: every event probes the icache. */
            const int64_t line = pc_addr[si] / ic_linebytes;
            const int64_t set = line % ic_lines;
            ic_acc++;
            if (ic_tags[set] != line) {
                ic_miss++;
                ic_tags[set] = line;
                int64_t fill = (cur > earliest ? cur : earliest)
                               + ic_pen;
                if (fill > fetch)
                    fetch = fill;
                if (fill > earliest)
                    earliest = fill;
            }
        }

        if (executed) {
            for (int32_t k = used_off[si]; k < used_off[si + 1]; k++) {
                const int64_t t0 = ready[used_idx[k]];
                if (t0 > earliest)
                    earliest = t0;
            }
        } else {
            const int32_t p = pred_tab[si];
            if (p >= 0) {
                const int64_t t0 = ready[p];
                if (t0 > earliest)
                    earliest = t0;
            }
        }

        if (!perfect && executed && (f & F_MEM) && membusy > earliest)
            earliest = membusy;

        int64_t t = earliest > cur ? earliest : cur;
        if (t == cur) {
            if (slots >= width)
                t += 1;
            else if (executed && (f & F_CONTROL)
                     && bslots >= branch_limit)
                t += 1;
        }
        if (t > cur) {
            cur = t;
            slots = 0;
            bslots = 0;
        }
        slots += 1;
        if (executed && (f & F_CONTROL))
            bslots += 1;

        if (f & F_DYNBRANCH) {
            branches++;
            int outcome;
            if (f & F_JUMP)
                outcome = executed != 0;
            else
                outcome = executed ? ((fl & 2) != 0) : 0;
            const int64_t a = pc_addr[si];
            const int64_t bi = (a >> 2) % btb_entries;
            int predicted;
            if (btb_tags[bi] == a) {
                predicted = btb_ctr[bi] >= 2;
                if (outcome) {
                    if (btb_ctr[bi] < 3)
                        btb_ctr[bi]++;
                } else if (btb_ctr[bi] > 0) {
                    btb_ctr[bi]--;
                }
            } else {
                predicted = 0;
                if (outcome) {
                    btb_tags[bi] = a;
                    btb_ctr[bi] = 2;
                }
            }
            if (predicted != outcome) {
                misp++;
                const int64_t stall = t + btb_bubble;
                if (stall > fetch)
                    fetch = stall;
            }
        }
        if (!executed) {
            suppressed_n++;
            continue;
        }
        executed_n++;

        int64_t lat = lat_tab[si];
        if (f & F_LOAD) {
            if (!perfect && mem_addr >= 0) {
                const int64_t line = mem_addr / dc_linebytes;
                const int64_t set = line % dc_lines;
                dc_acc++;
                if (dc_tags[set] != line) {
                    dc_miss++;
                    dc_tags[set] = line;
                    lat += dc_pen;
                    membusy = t + lat;
                }
            }
        } else if (f & F_STORE) {
            if (!perfect && mem_addr >= 0) {
                /* Write-through, no allocate: count only. */
                const int64_t line = mem_addr / dc_linebytes;
                const int64_t set = line % dc_lines;
                dc_acc++;
                if (dc_tags[set] != line)
                    dc_miss++;
            }
        }
        const int64_t done = t + lat;
        for (int32_t k = dests_off[si]; k < dests_off[si + 1]; k++)
            ready[dests_idx[k]] = done;
    }

    st[0] = cur; st[1] = slots; st[2] = bslots;
    st[3] = fetch; st[4] = membusy;
    st[5] = dynamic; st[6] = executed_n; st[7] = suppressed_n;
    st[8] = branches; st[9] = misp;
    st[10] = ic_acc; st[11] = ic_miss;
    st[12] = dc_acc; st[13] = dc_miss;
}

/* ---------------------------------------------------------------- */
/* Micro-op emulator.                                                */
/* ---------------------------------------------------------------- */

enum {
    K_ADD, K_MOV, K_CMP, K_SUB, K_AND, K_PREDDEF, K_OR, K_CMOV,
    K_SELECT, K_XOR, K_SHL, K_SHR, K_NOT, K_NEG, K_MUL, K_AND_NOT,
    K_OR_NOT, K_DIV, K_REM, K_FADD, K_FSUB, K_FMUL, K_FDIV, K_FNEG,
    K_FMOV, K_CVT_IF, K_CVT_FI, K_PREDSET, K_NOP,
    K_LOAD, K_LOAD_B, K_FLOAD, K_STORE, K_STORE_B, K_FSTORE,
    K_BRANCH, K_JUMP, K_CALL, K_RET
};

/* run statuses */
#define ST_DONE 0
#define ST_CHUNK 1
#define ST_FAULT 2

/* fault codes (out[4]) */
#define FLT_STEPS 1
#define FLT_FELL_OFF 2
#define FLT_BRANCH_LABEL 3
#define FLT_JUMP_LABEL 4
#define FLT_LOAD 5
#define FLT_LOAD_B 6
#define FLT_LOAD_F 7
#define FLT_STORE 8
#define FLT_IDIV0 9
#define FLT_FDIV0 10

#define NXT_NONE (-10)
#define TGT_UNKNOWN (-2)

#define SAFE_ADDR 32

typedef struct { int64_t i; double f; uint8_t isf; } Val;

typedef struct {
    int32_t fid;
    int32_t rpc;
    int32_t rdest;
    int64_t rbase;
    int64_t pbase;
} Frame;

typedef struct {
    /* program image (borrowed pointers; Python owns the buffers) */
    const int32_t *fn_nregs, *fn_npregs, *fn_entry_pc, *fn_entry_chain;
    const int32_t *fn_params_off, *params, *fn_const_off;
    const int64_t *const_i; const double *const_f;
    const uint8_t *const_isf;
    const int32_t *kind, *sidx, *dest, *m0, *i0, *m1, *i1, *m2, *i2;
    const int32_t *guard, *cond, *spec, *buid, *tgt_pc, *tgt_chain;
    const int32_t *callee, *cargs_off, *cargs_mode, *cargs_idx;
    const int32_t *pd_off, *pd_pidx;
    const int8_t *pd_table;
    const int32_t *pdp, *nxt_pc, *nxt_chain, *fn_of_pc;
    const int32_t *chain_off, *chain_keys;
    uint8_t *mem;
    int32_t *t_sidx; uint8_t *t_flags; int64_t *t_addr;
    int32_t *t_vidx;
    int64_t *val_i; double *val_f; uint8_t *val_isf;
    int64_t *site_counts; int32_t *site_order;
    int64_t *branch_counts; int32_t *branch_order;
    int64_t *out;
    double *out_f;
    int64_t nfuncs, ncode, memsize, max_steps, chunk_cap, entry_fid;
    int64_t nsites, nbuids;
    /* runtime state */
    int64_t steps, suppressed;
    int64_t tn, nvals;
    int64_t order_n, border_n;
    int64_t out_count;
    uint64_t sig;
    int32_t fid, pc;
    int64_t rbase, pbase;
    int64_t *ri; double *rf; uint8_t *rtag;
    uint8_t *pl;
    int64_t rtop, rcap, ptop, pcap;
    Frame *frames;
    int64_t nframes, fcap;
    Val *argv;
    int64_t argcap;
    int started, after_chunk;
} Emu;

/* Low 32 bits as a signed value; unsigned intermediate so any int64
   input is handled without signed-overflow UB (mod-2^32 matches the
   Python "(x + 0x80000000 & 0xFFFFFFFF) - 0x80000000" idiom). */
static inline int64_t wrap32u(uint64_t x)
{
    return (int64_t)((x + 0x80000000ULL) & 0xFFFFFFFFULL)
           - 0x80000000LL;
}

static inline double asf(Val v) { return v.isf ? v.f : (double)v.i; }

static inline int istrue(Val v)
{
    return v.isf ? (v.f != 0.0) : (v.i != 0);
}

static inline int docmp(int cond, Val a, Val b)
{
    if (a.isf || b.isf) {
        const double x = asf(a), y = asf(b);
        switch (cond) {
        case 0: return x == y;
        case 1: return x != y;
        case 2: return x < y;
        case 3: return x <= y;
        case 4: return x > y;
        default: return x >= y;
        }
    }
    const int64_t x = a.i, y = b.i;
    switch (cond) {
    case 0: return x == y;
    case 1: return x != y;
    case 2: return x < y;
    case 3: return x <= y;
    case 4: return x > y;
    default: return x >= y;
    }
}

static inline Val getv(Emu *e, int m, int i)
{
    Val v;
    if (m == 0) {
        const int64_t b = e->rbase + i;
        v.i = e->ri[b]; v.f = e->rf[b]; v.isf = e->rtag[b];
    } else if (m == 1) {
        const int64_t c = e->fn_const_off[e->fid] + i;
        v.i = e->const_i[c]; v.f = e->const_f[c];
        v.isf = e->const_isf[c];
    } else {
        v.i = e->pl[e->pbase + i]; v.f = 0.0; v.isf = 0;
    }
    return v;
}

static inline void seti(Emu *e, int d, int64_t x)
{
    const int64_t b = e->rbase + d;
    e->ri[b] = x; e->rtag[b] = 0;
}

static inline void setf(Emu *e, int d, double x)
{
    const int64_t b = e->rbase + d;
    e->rf[b] = x; e->rtag[b] = 1;
}

static inline void setval(Emu *e, int64_t slot, Val v)
{
    e->ri[slot] = v.i; e->rf[slot] = v.f; e->rtag[slot] = v.isf;
}

/* Count every block-profile key in chain ``ci`` (the pre-walked
   fall-through chain), recording first occurrences in order so Python
   can rebuild the dict with serial insertion order. */
static inline void count_chain(Emu *e, int32_t ci)
{
    for (int32_t k = e->chain_off[ci]; k < e->chain_off[ci + 1]; k++) {
        const int32_t s = e->chain_keys[k];
        if (e->site_counts[s]++ == 0)
            e->site_order[e->order_n++] = s;
    }
}

static int ensure_regs(Emu *e, int64_t nr, int64_t np)
{
    if (e->rtop + nr > e->rcap) {
        int64_t nc = e->rcap * 2;
        while (nc < e->rtop + nr)
            nc *= 2;
        int64_t *ri = realloc(e->ri, nc * sizeof(int64_t));
        double *rf = realloc(e->rf, nc * sizeof(double));
        uint8_t *rt = realloc(e->rtag, nc);
        if (!ri || !rf || !rt)
            return 0;
        e->ri = ri; e->rf = rf; e->rtag = rt; e->rcap = nc;
    }
    if (e->ptop + np > e->pcap) {
        int64_t nc = e->pcap * 2;
        while (nc < e->ptop + np)
            nc *= 2;
        uint8_t *pl = realloc(e->pl, nc);
        if (!pl)
            return 0;
        e->pl = pl; e->pcap = nc;
    }
    return 1;
}

/* ---------------------------------------------------------------- */
/* Store-stream signature: CPython's hash((addr, value)), folded      */
/* FNV-style exactly as emu/interpreter.py folds it.  64-bit hashes:  */
/* an int hashes to itself mod 2^61-1, a float by _Py_HashDouble, a   */
/* tuple by the xxHash-style combine of CPython 3.8+.  NaN stores     */
/* fold through NAN_KEY (hash(nan) is id-based on 3.10+).             */
/* ---------------------------------------------------------------- */

#define PYHASH_BITS 61
#define PYHASH_MOD ((UINT64_C(1) << PYHASH_BITS) - 1)
#define PYHASH_INF UINT64_C(314159)
#define XXPRIME_1 UINT64_C(11400714785074694791)
#define XXPRIME_2 UINT64_C(14029467366897019727)
#define XXPRIME_5 UINT64_C(2870177450012600261)
#define SIG_PRIME UINT64_C(1099511628211)
#define NAN_KEY INT64_C(0x7FF8000000000000)

static inline uint64_t py_hash_int(int64_t v)
{
    const uint64_t mag = v < 0 ? UINT64_C(0) - (uint64_t)v : (uint64_t)v;
    uint64_t x = mag % PYHASH_MOD;
    if (v < 0)
        x = UINT64_C(0) - x;
    return x == UINT64_MAX ? UINT64_MAX - 1 : x;
}

static uint64_t py_hash_double(double v)
{
    if (isnan(v))
        return py_hash_int(NAN_KEY);
    if (isinf(v))
        return v > 0 ? PYHASH_INF : UINT64_C(0) - PYHASH_INF;
    int e;
    double m = frexp(v, &e);
    int neg = 0;
    if (m < 0) {
        neg = 1;
        m = -m;
    }
    uint64_t x = 0;
    while (m != 0.0) {
        x = ((x << 28) & PYHASH_MOD) | x >> (PYHASH_BITS - 28);
        m *= 268435456.0;  /* 2**28 */
        e -= 28;
        const uint64_t y = (uint64_t)m;
        m -= (double)y;
        x += y;
        if (x >= PYHASH_MOD)
            x -= PYHASH_MOD;
    }
    e = e >= 0 ? e % PYHASH_BITS
               : PYHASH_BITS - 1 - ((-1 - e) % PYHASH_BITS);
    x = ((x << e) & PYHASH_MOD) | x >> (PYHASH_BITS - e);
    if (neg)
        x = UINT64_C(0) - x;
    return x == UINT64_MAX ? UINT64_MAX - 1 : x;
}

static inline uint64_t xx_lane(uint64_t acc, uint64_t lane)
{
    acc += lane * XXPRIME_2;
    acc = (acc << 31) | (acc >> 33);
    return acc * XXPRIME_1;
}

static inline void fold_store(Emu *e, int64_t addr, Val v)
{
    if (addr == SAFE_ADDR)
        return;
    uint64_t acc = XXPRIME_5;
    acc = xx_lane(acc, py_hash_int(addr));
    acc = xx_lane(acc, v.isf ? py_hash_double(v.f) : py_hash_int(v.i));
    acc += 2 ^ (XXPRIME_5 ^ UINT64_C(3527539));
    if (acc == UINT64_MAX)
        acc = UINT64_C(1546275796);
    e->out_count++;
    e->sig = (e->sig ^ acc) * SIG_PRIME;
}

/* ptrs layout: see native.py _EMU_PTRS.  cfg:
   0 nfuncs 1 ncode 2 memsize 3 max_steps 4 chunk_cap 5 entry_fid
   6 nsites 7 nbuids 8 max_call_args
   out (i64[16]):
   0 steps 1 suppressed 2 ret_isf 3 ret_i 4 fault_code 5 fault_pc
   6 fault_aux 7 order_n 8 border_n 9 tn 10 nvals 11 fault_fid
   12 output_count 13 output_signature (the uint64 bits) */

void *emu_new(const int64_t *ptrs, const int64_t *cfg)
{
    Emu *e = calloc(1, sizeof(Emu));
    if (!e)
        return 0;
    e->fn_nregs = (const int32_t *)ptrs[0];
    e->fn_npregs = (const int32_t *)ptrs[1];
    e->fn_entry_pc = (const int32_t *)ptrs[2];
    e->fn_entry_chain = (const int32_t *)ptrs[3];
    e->fn_params_off = (const int32_t *)ptrs[4];
    e->params = (const int32_t *)ptrs[5];
    e->fn_const_off = (const int32_t *)ptrs[6];
    e->const_i = (const int64_t *)ptrs[7];
    e->const_f = (const double *)ptrs[8];
    e->const_isf = (const uint8_t *)ptrs[9];
    e->kind = (const int32_t *)ptrs[10];
    e->sidx = (const int32_t *)ptrs[11];
    e->dest = (const int32_t *)ptrs[12];
    e->m0 = (const int32_t *)ptrs[13];
    e->i0 = (const int32_t *)ptrs[14];
    e->m1 = (const int32_t *)ptrs[15];
    e->i1 = (const int32_t *)ptrs[16];
    e->m2 = (const int32_t *)ptrs[17];
    e->i2 = (const int32_t *)ptrs[18];
    e->guard = (const int32_t *)ptrs[19];
    e->cond = (const int32_t *)ptrs[20];
    e->spec = (const int32_t *)ptrs[21];
    e->buid = (const int32_t *)ptrs[22];
    e->tgt_pc = (const int32_t *)ptrs[23];
    e->tgt_chain = (const int32_t *)ptrs[24];
    e->callee = (const int32_t *)ptrs[25];
    e->cargs_off = (const int32_t *)ptrs[26];
    e->cargs_mode = (const int32_t *)ptrs[27];
    e->cargs_idx = (const int32_t *)ptrs[28];
    e->pd_off = (const int32_t *)ptrs[29];
    e->pd_pidx = (const int32_t *)ptrs[30];
    e->pd_table = (const int8_t *)ptrs[31];
    e->pdp = (const int32_t *)ptrs[32];
    e->nxt_pc = (const int32_t *)ptrs[33];
    e->nxt_chain = (const int32_t *)ptrs[34];
    e->fn_of_pc = (const int32_t *)ptrs[35];
    e->mem = (uint8_t *)ptrs[36];
    e->t_sidx = (int32_t *)ptrs[37];
    e->t_flags = (uint8_t *)ptrs[38];
    e->t_addr = (int64_t *)ptrs[39];
    e->t_vidx = (int32_t *)ptrs[40];
    e->val_i = (int64_t *)ptrs[41];
    e->val_f = (double *)ptrs[42];
    e->val_isf = (uint8_t *)ptrs[43];
    e->site_counts = (int64_t *)ptrs[44];
    e->site_order = (int32_t *)ptrs[45];
    e->branch_counts = (int64_t *)ptrs[46];
    e->branch_order = (int32_t *)ptrs[47];
    e->out = (int64_t *)ptrs[48];
    e->out_f = (double *)ptrs[49];
    e->chain_off = (const int32_t *)ptrs[50];
    e->chain_keys = (const int32_t *)ptrs[51];
    e->nfuncs = cfg[0];
    e->ncode = cfg[1];
    e->memsize = cfg[2];
    e->max_steps = cfg[3];
    e->chunk_cap = cfg[4];
    e->entry_fid = cfg[5];
    e->nsites = cfg[6];
    e->nbuids = cfg[7];
    e->argcap = cfg[8] > 0 ? cfg[8] : 1;
    e->rcap = 1024; e->pcap = 256; e->fcap = 64;
    e->ri = malloc(e->rcap * sizeof(int64_t));
    e->rf = malloc(e->rcap * sizeof(double));
    e->rtag = malloc(e->rcap);
    e->pl = malloc(e->pcap);
    e->frames = malloc(e->fcap * sizeof(Frame));
    e->argv = malloc(e->argcap * sizeof(Val));
    if (!e->ri || !e->rf || !e->rtag || !e->pl || !e->frames
        || !e->argv) {
        free(e->ri); free(e->rf); free(e->rtag); free(e->pl);
        free(e->frames); free(e->argv); free(e);
        return 0;
    }
    return e;
}

void emu_free(void *h)
{
    Emu *e = (Emu *)h;
    if (!e)
        return;
    free(e->ri); free(e->rf); free(e->rtag); free(e->pl);
    free(e->frames); free(e->argv);
    free(e);
}

static int emu_finish(Emu *e, int status, int64_t fault_code,
                      int64_t fault_aux, Val ret)
{
    e->out[0] = e->steps;
    e->out[1] = e->suppressed;
    e->out[2] = ret.isf;
    e->out[3] = ret.i;
    e->out[4] = fault_code;
    e->out[5] = e->pc;
    e->out[6] = fault_aux;
    e->out[7] = e->order_n;
    e->out[8] = e->border_n;
    e->out[9] = e->tn;
    e->out[10] = e->nvals;
    e->out[11] = e->fid;
    e->out[12] = e->out_count;
    memcpy(&e->out[13], &e->sig, sizeof e->sig);
    e->out_f[0] = ret.f;
    return status;
}

#define EMIT(S, F, A, V) do { \
    e->t_sidx[e->tn] = (S); e->t_flags[e->tn] = (F); \
    e->t_addr[e->tn] = (A); e->t_vidx[e->tn] = (int32_t)(V); \
    e->tn++; } while (0)

#define FAULT(code, aux) \
    return emu_finish(e, ST_FAULT, (code), (aux), zero)

int emu_run(void *h)
{
    Emu *e = (Emu *)h;
    const Val zero = {0, 0.0, 0};

    if (e->after_chunk) {
        e->tn = 0;
        e->nvals = 0;
        e->after_chunk = 0;
    }
    if (!e->started) {
        e->started = 1;
        e->fid = (int32_t)e->entry_fid;
        int64_t nr = e->fn_nregs[e->fid];
        int64_t np = e->fn_npregs[e->fid];
        if (nr < 1) nr = 1;
        if (np < 1) np = 1;
        if (!ensure_regs(e, nr, np))
            FAULT(-1, 0);
        e->rbase = 0; e->rtop = nr;
        e->pbase = 0; e->ptop = np;
        memset(e->ri, 0, nr * sizeof(int64_t));
        memset(e->rf, 0, nr * sizeof(double));
        memset(e->rtag, 0, nr);
        memset(e->pl, 0, np);
        count_chain(e, e->fn_entry_chain[e->fid]);
        e->pc = e->fn_entry_pc[e->fid];
        if (e->pc < 0)
            FAULT(FLT_FELL_OFF, 0);
    }

    for (;;) {
        if (e->tn >= e->chunk_cap) {
            e->after_chunk = 1;
            return emu_finish(e, ST_CHUNK, 0, 0, zero);
        }
        const int32_t pc = e->pc;
        const int32_t kind = e->kind[pc];
        const int32_t sx = e->sidx[pc];
        e->steps++;
        if (e->steps > e->max_steps)
            FAULT(FLT_STEPS, 0);

        const int32_t g = e->guard[pc];
        if (g >= 0 && !e->pl[e->pbase + g]) {
            e->suppressed++;
            EMIT(sx, 0, -1, -1);
            goto advance;
        }

        if (kind < K_LOAD) {
            Val a, b, r;
            switch (kind) {
            case K_ADD:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     wrap32u((uint64_t)a.i + (uint64_t)b.i));
                break;
            case K_MOV:
                a = getv(e, e->m0[pc], e->i0[pc]);
                setval(e, e->rbase + e->dest[pc], a);
                break;
            case K_CMP:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc], docmp(e->cond[pc], a, b) ? 1 : 0);
                break;
            case K_SUB:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     wrap32u((uint64_t)a.i - (uint64_t)b.i));
                break;
            case K_AND:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc], a.i & b.i);
                break;
            case K_PREDDEF: {
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                const int32_t pin = e->pdp[pc];
                int idx = (pin < 0 || e->pl[e->pbase + pin]) ? 2 : 0;
                if (docmp(e->cond[pc], a, b))
                    idx += 1;
                for (int32_t k = e->pd_off[pc]; k < e->pd_off[pc + 1];
                     k++) {
                    const int8_t nv = e->pd_table[4 * k + idx];
                    if (nv >= 0)
                        e->pl[e->pbase + e->pd_pidx[k]] = nv;
                }
                break;
            }
            case K_OR:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc], a.i | b.i);
                break;
            case K_CMOV:
                b = getv(e, e->m1[pc], e->i1[pc]);
                if ((istrue(b) != 0) == e->spec[pc]) {
                    a = getv(e, e->m0[pc], e->i0[pc]);
                    setval(e, e->rbase + e->dest[pc], a);
                }
                break;
            case K_SELECT: {
                const Val c = getv(e, e->m2[pc], e->i2[pc]);
                a = istrue(c) ? getv(e, e->m0[pc], e->i0[pc])
                              : getv(e, e->m1[pc], e->i1[pc]);
                setval(e, e->rbase + e->dest[pc], a);
                break;
            }
            case K_XOR:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc], a.i ^ b.i);
                break;
            case K_SHL:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     wrap32u((uint64_t)a.i << (b.i & 31)));
                break;
            case K_SHR:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc], a.i >> (b.i & 31));
                break;
            case K_NOT:
                a = getv(e, e->m0[pc], e->i0[pc]);
                seti(e, e->dest[pc], wrap32u(~(uint64_t)a.i));
                break;
            case K_NEG:
                a = getv(e, e->m0[pc], e->i0[pc]);
                seti(e, e->dest[pc], wrap32u(-(uint64_t)a.i));
                break;
            case K_MUL:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     wrap32u((uint64_t)a.i * (uint64_t)b.i));
                break;
            case K_AND_NOT:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     (a.i != 0 && b.i == 0) ? 1 : 0);
                break;
            case K_OR_NOT:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                seti(e, e->dest[pc],
                     (a.i != 0 || b.i == 0) ? 1 : 0);
                break;
            case K_DIV:
            case K_REM: {
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                if (e->spec[pc] && b.i == 0) {
                    seti(e, e->dest[pc], 0);
                } else {
                    if (b.i == 0)
                        FAULT(FLT_IDIV0, 0);
                    int64_t q = (a.i < 0 ? -a.i : a.i)
                                / (b.i < 0 ? -b.i : b.i);
                    if ((a.i < 0) != (b.i < 0))
                        q = -q;
                    if (kind == K_REM)
                        q = a.i - q * b.i;
                    seti(e, e->dest[pc], wrap32u((uint64_t)q));
                }
                break;
            }
            case K_FADD:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                if (!a.isf && !b.isf)
                    seti(e, e->dest[pc],
                         (int64_t)((uint64_t)a.i + (uint64_t)b.i));
                else
                    setf(e, e->dest[pc], asf(a) + asf(b));
                break;
            case K_FSUB:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                if (!a.isf && !b.isf)
                    seti(e, e->dest[pc],
                         (int64_t)((uint64_t)a.i - (uint64_t)b.i));
                else
                    setf(e, e->dest[pc], asf(a) - asf(b));
                break;
            case K_FMUL:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                if (!a.isf && !b.isf)
                    seti(e, e->dest[pc],
                         (int64_t)((uint64_t)a.i * (uint64_t)b.i));
                else
                    setf(e, e->dest[pc], asf(a) * asf(b));
                break;
            case K_FDIV:
                a = getv(e, e->m0[pc], e->i0[pc]);
                b = getv(e, e->m1[pc], e->i1[pc]);
                if (asf(b) == 0.0) {
                    if (!e->spec[pc])
                        FAULT(FLT_FDIV0, 0);
                    setf(e, e->dest[pc], 0.0);
                } else {
                    setf(e, e->dest[pc], asf(a) / asf(b));
                }
                break;
            case K_FNEG:
                a = getv(e, e->m0[pc], e->i0[pc]);
                if (!a.isf)
                    seti(e, e->dest[pc],
                         (int64_t)(0 - (uint64_t)a.i));
                else
                    setf(e, e->dest[pc], -a.f);
                break;
            case K_FMOV:
            case K_CVT_IF:
                a = getv(e, e->m0[pc], e->i0[pc]);
                setf(e, e->dest[pc], asf(a));
                break;
            case K_CVT_FI:
                a = getv(e, e->m0[pc], e->i0[pc]);
                if (!a.isf) {
                    seti(e, e->dest[pc], wrap32u((uint64_t)a.i));
                } else {
                    /* Python int(a) & reduce mod 2^32: reduce in
                       double first so the cast never overflows. */
                    const double m = fmod(trunc(a.f), 4294967296.0);
                    seti(e, e->dest[pc],
                         wrap32u((uint64_t)(int64_t)m));
                }
                break;
            case K_PREDSET: {
                const int32_t np = e->fn_npregs[e->fid];
                memset(e->pl + e->pbase, (int)e->spec[pc], np);
                break;
            }
            default: /* K_NOP */
                break;
            }
            (void)r;
            EMIT(sx, 1, -1, -1);
            goto advance;
        }

        if (kind < K_STORE) {
            const Val a = getv(e, e->m0[pc], e->i0[pc]);
            const Val b = getv(e, e->m1[pc], e->i1[pc]);
            const int64_t addr = a.i + b.i;
            if (kind == K_LOAD) {
                if (addr < 32 || addr + 4 > e->memsize) {
                    if (!e->spec[pc])
                        FAULT(FLT_LOAD, addr);
                    seti(e, e->dest[pc], 0);
                } else {
                    int32_t v;
                    memcpy(&v, e->mem + addr, 4);
                    seti(e, e->dest[pc], v);
                }
            } else if (kind == K_LOAD_B) {
                if (addr < 32 || addr + 1 > e->memsize) {
                    if (!e->spec[pc])
                        FAULT(FLT_LOAD_B, addr);
                    seti(e, e->dest[pc], 0);
                } else {
                    seti(e, e->dest[pc], e->mem[addr]);
                }
            } else {
                if (addr < 32 || addr + 8 > e->memsize) {
                    if (!e->spec[pc])
                        FAULT(FLT_LOAD_F, addr);
                    setf(e, e->dest[pc], 0.0);
                } else {
                    double v;
                    memcpy(&v, e->mem + addr, 8);
                    setf(e, e->dest[pc], v);
                }
            }
            EMIT(sx, 1, addr, -1);
            goto advance;
        }

        if (kind < K_BRANCH) {
            const Val a = getv(e, e->m0[pc], e->i0[pc]);
            const Val b = getv(e, e->m1[pc], e->i1[pc]);
            const Val v = getv(e, e->m2[pc], e->i2[pc]);
            const int64_t addr = a.i + b.i;
            Val sval = zero;
            if (kind == K_STORE) {
                if (addr < 32 || addr + 4 > e->memsize)
                    FAULT(FLT_STORE, addr);
                const uint32_t u = (uint32_t)(v.i & 0xFFFFFFFFLL);
                memcpy(e->mem + addr, &u, 4);
                sval.i = v.i & 0xFFFFFFFFLL;
            } else if (kind == K_STORE_B) {
                if (addr < 32 || addr + 1 > e->memsize)
                    FAULT(FLT_STORE, addr);
                e->mem[addr] = (uint8_t)(v.i & 0xFF);
                sval.i = v.i & 0xFF;
            } else {
                if (addr < 32 || addr + 8 > e->memsize)
                    FAULT(FLT_STORE, addr);
                const double d = asf(v);
                memcpy(e->mem + addr, &d, 8);
                sval.f = d;
                sval.isf = 1;
            }
            e->val_i[e->nvals] = sval.i;
            e->val_f[e->nvals] = sval.f;
            e->val_isf[e->nvals] = sval.isf;
            fold_store(e, addr, sval);
            EMIT(sx, 1, addr, e->nvals);
            e->nvals++;
            goto advance;
        }

        if (kind == K_BRANCH) {
            const Val a = getv(e, e->m0[pc], e->i0[pc]);
            const Val b = getv(e, e->m1[pc], e->i1[pc]);
            const int taken = docmp(e->cond[pc], a, b);
            const int32_t bu = e->buid[pc];
            if (e->branch_counts[2 * bu] == 0
                && e->branch_counts[2 * bu + 1] == 0)
                e->branch_order[e->border_n++] = bu;
            e->branch_counts[2 * bu + (taken ? 1 : 0)]++;
            EMIT(sx, taken ? 3 : 1, -1, -1);
            if (taken) {
                const int32_t t = e->tgt_pc[pc];
                if (t == TGT_UNKNOWN)
                    FAULT(FLT_BRANCH_LABEL, 0);
                count_chain(e, e->tgt_chain[pc]);
                if (t < 0)
                    FAULT(FLT_FELL_OFF, 0);
                e->pc = t;
                continue;
            }
            goto advance;
        }

        if (kind == K_JUMP) {
            EMIT(sx, 3, -1, -1);
            const int32_t t = e->tgt_pc[pc];
            if (t == TGT_UNKNOWN)
                FAULT(FLT_JUMP_LABEL, 0);
            count_chain(e, e->tgt_chain[pc]);
            if (t < 0)
                FAULT(FLT_FELL_OFF, 0);
            e->pc = t;
            continue;
        }

        if (kind == K_CALL) {
            EMIT(sx, 3, -1, -1);
            const int32_t cfid = e->callee[pc];
            const int32_t a0 = e->cargs_off[pc];
            const int32_t na = e->cargs_off[pc + 1] - a0;
            for (int32_t k = 0; k < na; k++)
                e->argv[k] = getv(e, e->cargs_mode[a0 + k],
                                  e->cargs_idx[a0 + k]);
            if (e->nframes >= e->fcap) {
                Frame *nf = realloc(e->frames,
                                    e->fcap * 2 * sizeof(Frame));
                if (!nf)
                    FAULT(-1, 0);
                e->frames = nf;
                e->fcap *= 2;
            }
            Frame *fr = &e->frames[e->nframes++];
            fr->fid = e->fid;
            fr->rpc = pc;
            fr->rdest = e->dest[pc];
            fr->rbase = e->rbase;
            fr->pbase = e->pbase;
            int64_t nr = e->fn_nregs[cfid];
            int64_t np = e->fn_npregs[cfid];
            if (nr < 1) nr = 1;
            if (np < 1) np = 1;
            if (!ensure_regs(e, nr, np))
                FAULT(-1, 0);
            memset(e->ri + e->rtop, 0, nr * sizeof(int64_t));
            memset(e->rf + e->rtop, 0, nr * sizeof(double));
            memset(e->rtag + e->rtop, 0, nr);
            memset(e->pl + e->ptop, 0, np);
            const int32_t p0 = e->fn_params_off[cfid];
            int32_t nparams = e->fn_params_off[cfid + 1] - p0;
            if (nparams > na)
                nparams = na;
            for (int32_t k = 0; k < nparams; k++) {
                const int64_t slot = e->rtop + e->params[p0 + k];
                e->ri[slot] = e->argv[k].i;
                e->rf[slot] = e->argv[k].f;
                e->rtag[slot] = e->argv[k].isf;
            }
            e->rbase = e->rtop; e->rtop += nr;
            e->pbase = e->ptop; e->ptop += np;
            e->fid = cfid;
            count_chain(e, e->fn_entry_chain[cfid]);
            e->pc = e->fn_entry_pc[cfid];
            if (e->pc < 0)
                FAULT(FLT_FELL_OFF, 0);
            continue;
        }

        /* K_RET */
        {
            EMIT(sx, 3, -1, -1);
            Val v = zero;
            if (e->spec[pc])
                v = getv(e, e->m0[pc], e->i0[pc]);
            if (e->nframes == 0)
                return emu_finish(e, ST_DONE, 0, 0, v);
            const Frame fr = e->frames[--e->nframes];
            e->rtop = e->rbase;
            e->ptop = e->pbase;
            e->rbase = fr.rbase;
            e->pbase = fr.pbase;
            e->fid = fr.fid;
            if (fr.rdest >= 0)
                setval(e, e->rbase + fr.rdest, v);
            const int32_t np_ = e->nxt_pc[fr.rpc];
            if (np_ == NXT_NONE) {
                e->pc = fr.rpc + 1;
                continue;
            }
            count_chain(e, e->nxt_chain[fr.rpc]);
            if (np_ < 0)
                FAULT(FLT_FELL_OFF, 0);
            e->pc = np_;
            continue;
        }

advance:
        {
            const int32_t np_ = e->nxt_pc[pc];
            if (np_ == NXT_NONE) {
                e->pc = pc + 1;
                continue;
            }
            count_chain(e, e->nxt_chain[pc]);
            if (np_ < 0)
                FAULT(FLT_FELL_OFF, 0);
            e->pc = np_;
            continue;
        }
    }
}

int native_probe(void) { return 42; }
"""
