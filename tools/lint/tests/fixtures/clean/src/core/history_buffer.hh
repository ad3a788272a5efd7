// Fixture: arena-managed file allocating only through ArenaBuffer;
// a comment may say "new entry" or "malloc-free" without tripping.
#include "common/arena.hh"

struct CleanHistoryLog
{
    void
    reset(unsigned long entries)
    {
        blocks_.reset(entries);
        marks_.reset(entries);
    }

    stms::ArenaBuffer<unsigned long> blocks_;
    stms::ArenaBuffer<unsigned char> marks_;
};
