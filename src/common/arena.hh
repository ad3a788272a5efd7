/**
 * @file
 * Per-run bump arena for the short-lived data-plane allocations
 * (docs/PERF.md).
 *
 * Every run constructs, fills, and tears down the same family of
 * structures — index-table key arrays, history windows, MSHR tables,
 * prefetch buffers, stream bookkeeping. Taking those from the global
 * heap makes `--threads N` workers serialize on the allocator and
 * re-faults fresh pages every run. The arena replaces that with a
 * thread-local bump pointer: blocks are grabbed from the OS once,
 * handed out with two adds, and *reused in place* on reset, so run N+1
 * writes the same warm pages run N did and worker threads never touch
 * a shared allocator on the hot path.
 *
 * Contracts:
 *  - Thread isolation: an Arena is single-threaded by design (no
 *    locks). The thread-local "current" arena installed by
 *    ScopedRunArena is invisible to other threads.
 *  - Lifetime: memory from allocate() is valid until the owning
 *    arena's reset() or destruction. ScopedRunArena resets on scope
 *    exit, so nothing allocated under it may escape the scope —
 *    in this repo that scope is one runTrace() call, and every arena
 *    consumer lives inside the CmpSystem torn down before it ends.
 *  - Deterministic reuse: reset() rewinds to the first block and
 *    allocation walks blocks in creation order without backtracking,
 *    so an identical allocation sequence after a reset returns
 *    identical pointers (tests/common/arena_test.cc locks this in —
 *    it is what makes arena reuse invisible to the determinism
 *    gates).
 *  - Exhaustion: allocations past the byte budget (or over-aligned
 *    ones) fall back to the heap, are tracked, and are freed on
 *    reset(); callers never see the difference.
 */

#ifndef STMS_COMMON_ARENA_HH
#define STMS_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace stms
{

/** Chunked bump allocator; see the file comment for the contracts. */
class Arena
{
  public:
    /** Alignment every in-block allocation is rounded to (one cache
     *  line, so SoA scan arrays never straddle an extra line). */
    static constexpr std::size_t kAlign = 64;

    /** First block size; later blocks double up to kMaxBlockBytes. */
    static constexpr std::size_t kFirstBlockBytes = 256 * 1024;
    static constexpr std::size_t kMaxBlockBytes = 64ULL << 20;

    /** Default byte budget before heap fallback kicks in. */
    static constexpr std::size_t kDefaultBudgetBytes = 1ULL << 30;

    explicit Arena(std::size_t budget_bytes = kDefaultBudgetBytes)
        : budget_(budget_bytes)
    {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena();

    /**
     * @p bytes of storage aligned to min(align, kAlign); uninitialized.
     * Never returns nullptr (asserts on OOM like the rest of the repo).
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /**
     * Rewind to the first block (blocks are kept and reused in order)
     * and free any heap-fallback allocations. Everything previously
     * returned by allocate() is invalidated.
     */
    void reset();

    /**
     * reset(), then return every block to the OS. For measurement
     * isolation points (perf_suite's per-schedule RSS watermark) where
     * retained warm pages would be double-counted against a later
     * phase; normal run-to-run reuse never calls this.
     */
    void trim();

    /** Bytes handed out since the last reset (in-block only). */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Blocks currently owned (never shrinks until destruction). */
    std::size_t blockCount() const { return blocks_.size(); }

    /** Heap-fallback allocations live since the last reset. */
    std::size_t overflowCount() const { return overflow_.size(); }

    /** Bytes reserved from the OS in blocks (excludes overflow). */
    std::size_t reservedBytes() const { return reserved_; }

  private:
    struct Block
    {
        std::byte *data;
        std::size_t size;
    };

    void *overflowAllocate(std::size_t bytes, std::size_t align);

    std::size_t budget_;
    std::vector<Block> blocks_;
    std::size_t cursorBlock_ = 0;  ///< Block currently bumping.
    std::size_t cursorOffset_ = 0;
    std::size_t allocated_ = 0;
    std::size_t reserved_ = 0;
    std::vector<std::pair<void *, std::size_t>> overflow_;
};

/** The calling thread's active arena, or nullptr (heap fallback). */
Arena *currentArena();

/**
 * Release the calling thread's cached run arena back to the OS. A
 * no-op while a ScopedRunArena is live on this thread (the storage is
 * in use). Only measurement code should need this; see Arena::trim().
 */
void trimThreadRunArena();

/**
 * Install @p arena as the calling thread's active arena for the
 * lifetime of this object; restores the previous one on destruction.
 * Building block for ScopedRunArena and the tests.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena *arena);
    ~ArenaScope();
    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena *previous_;
};

/**
 * One run's arena scope (installed by runTrace). The outermost scope
 * on a thread installs that thread's cached run arena and resets it on
 * exit — so consecutive runs on a worker thread recycle the same warm
 * blocks. Nested scopes (a run inside a run would be a bug, but
 * experiments share helpers) are no-ops: the outermost owner resets.
 */
class ScopedRunArena
{
  public:
    ScopedRunArena();
    ~ScopedRunArena();
    ScopedRunArena(const ScopedRunArena &) = delete;
    ScopedRunArena &operator=(const ScopedRunArena &) = delete;

  private:
    Arena *installed_ = nullptr;  ///< Null when nested (no-op).
};

/**
 * RAII array of trivially-destructible @p T backed by the thread's
 * current arena when one is installed, the heap otherwise. The arena
 * path's deallocation is a no-op (reclaimed wholesale at reset), which
 * is exactly what makes per-run structures free to tear down.
 *
 * Storage is uninitialized either way; callers guard reads with their
 * own counts, same as the make_unique_for_overwrite idiom this
 * replaces.
 */
template <typename T>
class ArenaBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ArenaBuffer requires trivial element types");

  public:
    ArenaBuffer() = default;
    explicit ArenaBuffer(std::size_t count) { reset(count); }

    ArenaBuffer(ArenaBuffer &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          heap_(std::exchange(other.heap_, false))
    {}

    ArenaBuffer &
    operator=(ArenaBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            heap_ = std::exchange(other.heap_, false);
        }
        return *this;
    }

    ArenaBuffer(const ArenaBuffer &) = delete;
    ArenaBuffer &operator=(const ArenaBuffer &) = delete;

    ~ArenaBuffer() { release(); }

    /** Replace the contents with @p count uninitialized elements. */
    void
    reset(std::size_t count)
    {
        release();
        if (count == 0)
            return;
        if (Arena *arena = currentArena()) {
            data_ = static_cast<T *>(
                arena->allocate(count * sizeof(T), alignof(T)));
        } else {
            data_ = static_cast<T *>(
                ::operator new(count * sizeof(T)));
            heap_ = true;
        }
        size_ = count;
    }

    T &operator[](std::size_t index) { return data_[index]; }
    const T &operator[](std::size_t index) const { return data_[index]; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    void
    release()
    {
        if (heap_)
            ::operator delete(data_);
        data_ = nullptr;
        size_ = 0;
        heap_ = false;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    bool heap_ = false;
};

} // namespace stms

#endif // STMS_COMMON_ARENA_HH
