/**
 * @file
 * AVX2 + BMI + POPCNT kernel variants — the software analogue of
 * the paper's Bitmap Management Unit. CSR dots gather x with
 * vgatherdpd under two 4-lane accumulators; the SMASH word walk
 * decodes set bits with tzcnt/blsr (BMI) and, for the common
 * blockSize==2 encoding, multiplies two blocks per ymm; the rank
 * pre-scan uses the popcnt instruction. (_pext_u64 lane compaction
 * was prototyped and lost to the tzcnt/blsr decode — see
 * docs/performance.md.)
 *
 * Every function carries a target attribute instead of the TU being
 * compiled with -mavx2, so the binary stays runnable on any x86-64
 * and the dispatch table alone decides what executes. Arithmetic is
 * mul+add (never FMA) in the canonical order of simd_internal.hh:
 * results are bit-identical to the scalar variant. Tail lanes use
 * masked loads/gathers that contribute +0.0 products, exactly like
 * the scalar tail padding; masked lanes never touch memory, so
 * there are no out-of-bounds reads.
 */

#include "kernels/simd/simd_internal.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SMASH_SIMD_X86 1
#include <immintrin.h>
#else
#define SMASH_SIMD_X86 0
#endif

namespace smash::simd
{

#if SMASH_SIMD_X86

#define SMASH_TARGET_AVX2 \
    __attribute__((target("avx2,bmi,bmi2,popcnt")))

namespace
{

/** Sliding-window tail masks: load at (8 - active) for a 64-bit
 *  4-lane mask with the first `active` lanes enabled. */
alignas(32) constexpr std::int64_t kTailMask64[12] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0,
};
/** Same trick for 32-bit index lanes (first `active` of 4). */
alignas(16) constexpr std::int32_t kTailMask32[8] = {
    -1, -1, -1, -1, 0, 0, 0, 0,
};

SMASH_TARGET_AVX2 inline __m256i
tailMask64(Index active) // 0..4 lanes enabled
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        kTailMask64 + (8 - active)));
}

SMASH_TARGET_AVX2 inline __m128i
tailMask32(Index active) // 0..4 lanes enabled
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        kTailMask32 + (4 - active)));
}

/** The canonical reduction of the two 4-lane accumulators (see
 *  simd_internal.hh: this IS the ((s0+s4)+(s2+s6)) +
 *  ((s1+s5)+(s3+s7)) tree). */
SMASH_TARGET_AVX2 inline Value
reduceAcc(__m256d acc0, __m256d acc1)
{
    const __m256d v = _mm256_add_pd(acc0, acc1);
    const __m128d p = _mm_add_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_pd(p, _mm_unpackhi_pd(p, p)));
}

/** Canonical CSR span dot, AVX2: dual gather accumulators, masked
 *  tail group. Mirrors detail::dotSpanScalar bit-for-bit. */
SMASH_TARGET_AVX2 inline Value
dotSpanAvx2(const fmt::CsrIndex* cols, const Value* vals, Index n,
            const Value* x, Index prefetch_limit)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        if (k + static_cast<Index>(kern::kXPrefetchDistance) + 7 <
            prefetch_limit) {
            // Match the scalar variant's coverage: one prefetch per
            // element, a full group ahead of the gathers.
            for (int l = 0; l < 8; ++l)
                kern::prefetchRead(&x[static_cast<std::size_t>(
                    cols[k + kern::kXPrefetchDistance + l])]);
        }
        const __m128i idx0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cols + k));
        const __m128i idx1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cols + k + 4));
        // Full-mask form of the gather: same vgatherdpd, but with a
        // defined destination (the plain intrinsic's undefined dst
        // trips -Wmaybe-uninitialized through the GCC headers).
        const __m256d ones =
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        const __m256d x0 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx0, ones, 8);
        const __m256d x1 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx1, ones, 8);
        const __m256d v0 = _mm256_loadu_pd(vals + k);
        const __m256d v1 = _mm256_loadu_pd(vals + k + 4);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
    }
    const Index rem = n - k;
    if (rem > 0) {
        const Index r0 = rem < 4 ? rem : 4;
        const Index r1 = rem - r0;
        const __m256i m0 = tailMask64(r0);
        const __m256i m1 = tailMask64(r1);
        // Masked index loads keep inactive lanes at 0; the masked
        // gather never dereferences inactive lanes, so the value is
        // irrelevant.
        const __m128i idx0 = _mm_maskload_epi32(
            reinterpret_cast<const int*>(cols + k), tailMask32(r0));
        const __m128i idx1 = _mm_maskload_epi32(
            reinterpret_cast<const int*>(cols + k + 4), tailMask32(r1));
        const __m256d x0 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx0, _mm256_castsi256_pd(m0), 8);
        const __m256d x1 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx1, _mm256_castsi256_pd(m1), 8);
        const __m256d v0 = _mm256_maskload_pd(vals + k, m0);
        const __m256d v1 = _mm256_maskload_pd(vals + k + 4, m1);
        // Inactive lanes add +0.0 * +0.0 — the scalar tail padding.
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
    }
    return reduceAcc(acc0, acc1);
}

/** Canonical contiguous dot, AVX2 (generic-blockSize SMASH). */
SMASH_TARGET_AVX2 inline Value
dotContigAvx2(const Value* a, const Value* b, Index n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(a + k),
                                _mm256_loadu_pd(b + k)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(a + k + 4),
                                _mm256_loadu_pd(b + k + 4)));
    }
    const Index rem = n - k;
    if (rem > 0) {
        const Index r0 = rem < 4 ? rem : 4;
        const Index r1 = rem - r0;
        const __m256i m0 = tailMask64(r0);
        const __m256i m1 = tailMask64(r1);
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_maskload_pd(a + k, m0),
                                _mm256_maskload_pd(b + k, m0)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_maskload_pd(a + k + 4, m1),
                                _mm256_maskload_pd(b + k + 4, m1)));
    }
    return reduceAcc(acc0, acc1);
}

SMASH_TARGET_AVX2 void
csrSpmvRangeAvx2(const fmt::CsrMatrix& a, const std::vector<Value>& x,
                 std::vector<Value>& y, Index row_begin, Index row_end)
{
    detail::checkCsrOperands(a, x, y);
    const fmt::CsrIndex* row_ptr = a.rowPtr().data();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    const Index pf_total =
        kern::wantXPrefetch(static_cast<std::size_t>(a.cols()) *
                            sizeof(Value))
            ? static_cast<Index>(a.colInd().size())
            : 0;
    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        const fmt::CsrIndex b = row_ptr[si];
        const Index n = static_cast<Index>(row_ptr[si + 1] - b);
        y[si] += dotSpanAvx2(cols + b, vals + b, n, xp,
                             pf_total == 0 ? Index(0) : pf_total - b);
    }
}

SMASH_TARGET_AVX2 void
csrSpmvTileRangeAvx2(const fmt::CsrMatrix& a,
                     const fmt::CsrIndex* seg_begin,
                     const fmt::CsrIndex* seg_end,
                     const std::vector<Value>& x, std::vector<Value>& y,
                     Index row_begin, Index row_end)
{
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        const fmt::CsrIndex b = seg_begin[si];
        const Index n = static_cast<Index>(seg_end[si] - b);
        if (n == 0)
            continue;
        y[si] += dotSpanAvx2(cols + b, vals + b, n, xp, 0);
    }
}

SMASH_TARGET_AVX2 void
csrSpmvBatchRangeAvx2(const fmt::CsrMatrix& a,
                      const fmt::DenseMatrix& x, fmt::DenseMatrix& y,
                      Index row_begin, Index row_end)
{
    const Index nrhs = kern::detail::batchWidth(a.rows(), a.cols(), x, y);
    const fmt::CsrIndex* row_ptr = a.rowPtr().data();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const std::size_t prefetch_below =
        kern::wantXPrefetch(
            static_cast<std::size_t>(a.cols() * nrhs) * sizeof(Value))
            ? a.colInd().size()
            : 0;
    if (nrhs <= kern::kBatchAccumWidth) {
        alignas(32) Value acc[kern::kBatchAccumWidth];
        for (Index i = row_begin; i < row_end; ++i) {
            auto si = static_cast<std::size_t>(i);
            Value* yr = &y.at(i, 0);
            for (Index r = 0; r < nrhs; ++r)
                acc[r] = yr[r];
            for (fmt::CsrIndex j = row_ptr[si]; j < row_ptr[si + 1];
                 ++j) {
                auto sj = static_cast<std::size_t>(j);
                const std::size_t ahead = sj + kern::kXPrefetchDistance;
                if (ahead < prefetch_below)
                    kern::prefetchRead(
                        x.rowData(static_cast<Index>(cols[ahead])));
                const __m256d v = _mm256_set1_pd(vals[sj]);
                const Value* xr =
                    x.rowData(static_cast<Index>(cols[sj]));
                // RHS lanes are independent accumulation chains:
                // any vector grouping over r is bit-identical.
                Index r = 0;
                for (; r + 4 <= nrhs; r += 4)
                    _mm256_store_pd(
                        acc + r,
                        _mm256_add_pd(
                            _mm256_load_pd(acc + r),
                            _mm256_mul_pd(v,
                                          _mm256_loadu_pd(xr + r))));
                for (; r < nrhs; ++r)
                    acc[r] += vals[sj] * xr[r];
            }
            for (Index r = 0; r < nrhs; ++r)
                yr[r] = acc[r];
        }
        return;
    }
    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        Value* yr = &y.at(i, 0);
        for (fmt::CsrIndex j = row_ptr[si]; j < row_ptr[si + 1]; ++j) {
            auto sj = static_cast<std::size_t>(j);
            const std::size_t ahead = sj + kern::kXPrefetchDistance;
            if (ahead < prefetch_below)
                kern::prefetchRead(
                    x.rowData(static_cast<Index>(cols[ahead])));
            const Value vs = vals[sj];
            const __m256d v = _mm256_set1_pd(vs);
            const Value* xr = x.rowData(static_cast<Index>(cols[sj]));
            Index r = 0;
            for (; r + 4 <= nrhs; r += 4)
                _mm256_storeu_pd(
                    yr + r,
                    _mm256_add_pd(_mm256_loadu_pd(yr + r),
                                  _mm256_mul_pd(
                                      v, _mm256_loadu_pd(xr + r))));
            for (; r < nrhs; ++r)
                yr[r] += vs * xr[r];
        }
    }
}

/**
 * Canonical blockSize==2 word sum, AVX2: decode set bits two at a
 * time with tzcnt/blsr, multiply two blocks (four products) per
 * ymm — even block in lanes 0..1, odd block in lanes 2..3 — then
 * reduce (s0+s2) + (s1+s3). Mirrors detail::pairWordScalar.
 */
SMASH_TARGET_AVX2 inline Value
pairWordAvx2(BitWord word, const Value* x_org, const Value* blk)
{
    __m256d acc = _mm256_setzero_pd();
    while (word != 0) {
        const auto t0 = static_cast<Index>(_tzcnt_u64(word));
        word = _blsr_u64(word);
        const __m128d xa =
            _mm_loadu_pd(x_org + static_cast<std::size_t>(2 * t0));
        if (word != 0) {
            const auto t1 = static_cast<Index>(_tzcnt_u64(word));
            word = _blsr_u64(word);
            const __m128d xb = _mm_loadu_pd(
                x_org + static_cast<std::size_t>(2 * t1));
            // Consecutive set bits own contiguous NZA payloads: one
            // unmasked 4-wide load covers both blocks.
            const __m256d bv = _mm256_loadu_pd(blk);
            const __m256d xv = _mm256_set_m128d(xb, xa);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(bv, xv));
            blk += 4;
        } else {
            // Odd trailing block: lanes 2..3 add +0.0 (the scalar
            // variant's explicit padding). Masked load also keeps
            // the last NZA block from reading past the array.
            const __m256d bv = _mm256_maskload_pd(blk, tailMask64(2));
            const __m256d xv =
                _mm256_set_m128d(_mm_setzero_pd(), xa);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(bv, xv));
            blk += 2;
        }
    }
    const __m128d p = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                 _mm256_extractf128_pd(acc, 1));
    return _mm_cvtsd_f64(_mm_add_pd(p, _mm_unpackhi_pd(p, p)));
}

SMASH_TARGET_AVX2 void
smashSpmvWordsAvx2(const core::SmashMatrix& a,
                   const std::vector<Value>& x, std::vector<Value>& y,
                   Index word_begin, Index word_end, Index nza_block)
{
    detail::checkSmashOperands(a, x, y);
    const Index bs = a.blockSize();
    const Value* nza = a.nza().data();
    const Value* xp = x.data();
    const Index bits_per_row = a.paddedCols() / bs;
    if (bits_per_row == 0)
        return;
    detail::NonZeroWords words(a.hierarchy(), word_begin, word_end);
    Index block = nza_block;
    Index w = 0;
    BitWord word = 0;
    while (words.next(w, word)) {
        const Index base_bit = w * kBitsPerWord;
        const Index row = base_bit / bits_per_row;
        if ((base_bit + kBitsPerWord - 1) / bits_per_row == row) {
            const Value* x_org =
                xp + static_cast<std::size_t>(
                         (base_bit - row * bits_per_row) * bs);
            const Value* blk =
                nza + static_cast<std::size_t>(block * bs);
            Value ws;
            if (bs == 2) {
                ws = pairWordAvx2(word, x_org, blk);
            } else {
                ws = 0;
                BitWord rest = word;
                while (rest != 0) {
                    const auto t =
                        static_cast<Index>(_tzcnt_u64(rest));
                    rest = _blsr_u64(rest);
                    ws += dotContigAvx2(
                        blk,
                        x_org + static_cast<std::size_t>(t * bs), bs);
                    blk += bs;
                }
            }
            y[static_cast<std::size_t>(row)] += ws;
            block += static_cast<Index>(_mm_popcnt_u64(word));
        } else {
            // Row-straddling word: the shared scalar per-bit path
            // (identical code in every variant).
            block = detail::smashWordSlow(word, base_bit, bits_per_row,
                                          bs, nza, block, xp,
                                          y.data());
        }
    }
}

/** Four lanes at @p p; the masked form reads only the lanes enabled
 *  in @p tail (the rest load as +0.0). */
template <bool kMasked>
SMASH_TARGET_AVX2 inline __m256d
loadLanes(const Value* p, __m256i tail)
{
    if constexpr (kMasked)
        return _mm256_maskload_pd(p, tail);
    else
        return _mm256_loadu_pd(p);
}

/**
 * Batched update of up to 4*NV Y lanes from one row segment, held
 * in NV ymm registers: the Y chunk is loaded once, each set bit's
 * non-zero payload elements broadcast against their X rows (@p x0
 * is X row seg.col0 at the chunk's first lane, @p xs the X row
 * stride), and the chunk is stored once. With kTail the last
 * register covers only the lanes enabled in @p tail; masked loads
 * and stores never touch the others. Same per-lane addition order
 * as the scalar lanes.
 */
template <int NV, bool kTail, Index BS>
SMASH_TARGET_AVX2 inline void
batchSegmentAvx2(BitWord bits, const Value* blk, Index bs_rt,
                 const Value* x0, Index xs, Value* yr, __m256i tail)
{
    const Index bs = BS > 0 ? BS : bs_rt;
    __m256d acc[NV];
#pragma GCC unroll 4
    for (int i = 0; i < NV - 1; ++i)
        acc[i] = _mm256_loadu_pd(yr + 4 * i);
    acc[NV - 1] = loadLanes<kTail>(yr + 4 * (NV - 1), tail);
    while (bits != 0) {
        const auto t = static_cast<Index>(_tzcnt_u64(bits));
        bits = _blsr_u64(bits);
        const Value* xb = x0 + static_cast<std::size_t>(t * bs * xs);
        for (Index k = 0; k < bs; ++k) {
            const Value vs = blk[k];
            // Keep the explicit-zero skip: same test in every variant.
            if (vs == Value(0))
                continue;
            const __m256d v = _mm256_set1_pd(vs);
            const Value* xr = xb + static_cast<std::size_t>(k * xs);
#pragma GCC unroll 4
            for (int i = 0; i < NV - 1; ++i)
                acc[i] = _mm256_add_pd(
                    acc[i],
                    _mm256_mul_pd(v, _mm256_loadu_pd(xr + 4 * i)));
            acc[NV - 1] = _mm256_add_pd(
                acc[NV - 1],
                _mm256_mul_pd(
                    v, loadLanes<kTail>(xr + 4 * (NV - 1), tail)));
        }
        blk += bs;
    }
#pragma GCC unroll 4
    for (int i = 0; i < NV - 1; ++i)
        _mm256_storeu_pd(yr + 4 * i, acc[i]);
    if constexpr (kTail)
        _mm256_maskstore_pd(yr + 4 * (NV - 1), tail, acc[NV - 1]);
    else
        _mm256_storeu_pd(yr + 4 * (NV - 1), acc[NV - 1]);
}

/** The last rem lanes (4*(NV-1) < rem <= 4*NV) of a row segment in
 *  NV registers, masking the last one unless rem fills it. */
template <int NV, Index BS>
SMASH_TARGET_AVX2 inline void
batchRemainderAvx2(Index rem, BitWord bits, const Value* blk, Index bs,
                   const Value* x0, Index xs, Value* yr)
{
    const Index last = rem - 4 * (NV - 1);
    if (last == 4)
        batchSegmentAvx2<NV, false, BS>(bits, blk, bs, x0, xs, yr,
                                        tailMask64(4));
    else
        batchSegmentAvx2<NV, true, BS>(bits, blk, bs, x0, xs, yr,
                                       tailMask64(last));
}

/** One row segment across all nrhs lanes: 16-lane chunks, then the
 *  remaining 1-15 lanes in one pass of 1-4 registers. */
template <Index BS>
SMASH_TARGET_AVX2 void
batchRowSegmentAvx2(const detail::RowSegment& seg, const Value* blk,
                    Index bs, const Value* xp, Index xs, Value* y,
                    Index nrhs)
{
    const Value* x0 = xp + static_cast<std::size_t>(seg.col0 * xs);
    Value* yr = y + static_cast<std::size_t>(seg.row * nrhs);
    Index r = 0;
    for (; r + 16 <= nrhs; r += 16)
        batchSegmentAvx2<4, false, BS>(seg.bits, blk, bs, x0 + r, xs,
                                       yr + r, tailMask64(4));
    const Index rem = nrhs - r;
    switch ((rem + 3) / 4) {
      case 0:
        return;
      case 1:
        batchRemainderAvx2<1, BS>(rem, seg.bits, blk, bs, x0 + r, xs,
                                  yr + r);
        return;
      case 2:
        batchRemainderAvx2<2, BS>(rem, seg.bits, blk, bs, x0 + r, xs,
                                  yr + r);
        return;
      case 3:
        batchRemainderAvx2<3, BS>(rem, seg.bits, blk, bs, x0 + r, xs,
                                  yr + r);
        return;
      default:
        batchRemainderAvx2<4, BS>(rem, seg.bits, blk, bs, x0 + r, xs,
                                  yr + r);
        return;
    }
}

SMASH_TARGET_AVX2 void
smashSpmvBatchWordsAvx2(const core::SmashMatrix& a,
                        const fmt::DenseMatrix& x, Value* y, Index nrhs,
                        Index word_begin, Index word_end,
                        Index nza_block)
{
    const Index bs = a.blockSize();
    const Index bits_per_row = a.paddedCols() / bs;
    if (bits_per_row == 0)
        return;
    const Value* nza = a.nza().data();
    const Value* xp = x.data().data();
    detail::NonZeroWords words(a.hierarchy(), word_begin, word_end);
    Index block = nza_block;
    Index w = 0;
    BitWord word = 0;
    while (words.next(w, word)) {
        const Index base_bit = w * kBitsPerWord;
        while (word != 0) {
            const detail::RowSegment seg = detail::takeRowSegment(
                word, base_bit, bits_per_row, bs);
            const Value* blk =
                nza + static_cast<std::size_t>(block * bs);
            if (bs == 2)
                batchRowSegmentAvx2<2>(seg, blk, bs, xp, x.cols(), y,
                                       nrhs);
            else
                batchRowSegmentAvx2<0>(seg, blk, bs, xp, x.cols(), y,
                                       nrhs);
            block += static_cast<Index>(_mm_popcnt_u64(seg.bits));
        }
    }
}

SMASH_TARGET_AVX2 Index
popcountWordsAvx2(const BitWord* words, Index n)
{
    std::uint64_t total = 0;
    Index i = 0;
    for (; i + 4 <= n; i += 4) {
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 1)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 2)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 3)]);
    }
    for (; i < n; ++i)
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i)]);
    return static_cast<Index>(total);
}

} // namespace

const KernelTable&
avx2KernelTable()
{
    static const KernelTable table = {
        &csrSpmvRangeAvx2,     &csrSpmvTileRangeAvx2,
        &csrSpmvBatchRangeAvx2, &smashSpmvWordsAvx2,
        &smashSpmvBatchWordsAvx2, &popcountWordsAvx2,
        IsaLevel::kAvx2,
    };
    return table;
}

#else // !SMASH_SIMD_X86

const KernelTable&
avx2KernelTable()
{
    return scalarKernelTable();
}

#endif

} // namespace smash::simd
