#include "common/arena.hh"

#include <algorithm>

#include "common/log.hh"

namespace stms
{

namespace
{

/** The calling thread's active arena (see ArenaScope). */
thread_local Arena *tls_current_arena = nullptr;

/**
 * The thread's cached run arena, shared by every ScopedRunArena the
 * thread ever opens — this is what carries warm blocks from one run
 * to the next on a worker thread.
 */
Arena &
threadRunArena()
{
    thread_local Arena arena;
    return arena;
}

} // namespace

Arena::~Arena()
{
    reset();
    for (const Block &block : blocks_)
        ::operator delete(block.data, std::align_val_t{kAlign});
}

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    stms_assert(bytes > 0, "arena allocation of zero bytes");
    if (align > kAlign)
        return overflowAllocate(bytes, align);

    // Walk blocks forward from the cursor; never backtrack, so a
    // repeated allocation sequence lands on identical addresses after
    // reset() (determinism contract in the file comment).
    while (cursorBlock_ < blocks_.size()) {
        const Block &block = blocks_[cursorBlock_];
        const std::size_t offset =
            (cursorOffset_ + (kAlign - 1)) & ~(kAlign - 1);
        if (offset + bytes <= block.size) {
            cursorOffset_ = offset + bytes;
            allocated_ += bytes;
            return block.data + offset;
        }
        ++cursorBlock_;
        cursorOffset_ = 0;
    }

    // Need a fresh block: geometric growth, big requests get a block
    // of their own size so one 64 MB table does not force a 64 MB
    // *pair* of blocks.
    std::size_t block_size = blocks_.empty()
                                 ? kFirstBlockBytes
                                 : blocks_.back().size * 2;
    block_size = std::min(block_size, kMaxBlockBytes);
    block_size = std::max(block_size, bytes);
    if (reserved_ + block_size > budget_) {
        // Over the preferred size: shrink to the remaining budget if
        // the request still fits (a tiny budget must not force every
        // allocation to the heap); otherwise serve from the heap.
        const std::size_t remaining = budget_ - std::min(reserved_, budget_);
        if (bytes > remaining)
            return overflowAllocate(bytes, align);
        block_size = remaining;
    }

    auto *data = static_cast<std::byte *>(
        ::operator new(block_size, std::align_val_t{kAlign}));
    blocks_.push_back(Block{data, block_size});
    reserved_ += block_size;
    cursorBlock_ = blocks_.size() - 1;
    cursorOffset_ = bytes;
    allocated_ += bytes;
    return data;
}

void *
Arena::overflowAllocate(std::size_t bytes, std::size_t align)
{
    void *pointer =
        align > alignof(std::max_align_t)
            ? ::operator new(bytes, std::align_val_t{align})
            : ::operator new(bytes);
    overflow_.emplace_back(pointer, align);
    return pointer;
}

void
Arena::trim()
{
    reset();
    for (const Block &block : blocks_)
        ::operator delete(block.data, std::align_val_t{kAlign});
    blocks_.clear();
    reserved_ = 0;
}

void
Arena::reset()
{
    cursorBlock_ = 0;
    cursorOffset_ = 0;
    allocated_ = 0;
    for (const auto &[pointer, align] : overflow_) {
        if (align > alignof(std::max_align_t))
            ::operator delete(pointer, std::align_val_t{align});
        else
            ::operator delete(pointer);
    }
    overflow_.clear();
}

Arena *
currentArena()
{
    return tls_current_arena;
}

void
trimThreadRunArena()
{
    Arena &arena = threadRunArena();
    if (tls_current_arena == &arena)
        return;  // A run is live on this thread; its storage is in use.
    arena.trim();
}

ArenaScope::ArenaScope(Arena *arena) : previous_(tls_current_arena)
{
    tls_current_arena = arena;
}

ArenaScope::~ArenaScope()
{
    tls_current_arena = previous_;
}

ScopedRunArena::ScopedRunArena()
{
    if (tls_current_arena != nullptr)
        return;  // Nested: the outermost scope owns install + reset.
    installed_ = &threadRunArena();
    tls_current_arena = installed_;
}

ScopedRunArena::~ScopedRunArena()
{
    if (installed_ == nullptr)
        return;
    tls_current_arena = nullptr;
    installed_->reset();
}

} // namespace stms
