#include "tex/texture.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tex/compression.hh"

namespace texpim {

namespace {

bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
wrapCoord(int c, unsigned extent)
{
    int e = int(extent);
    int m = c % e;
    return m < 0 ? m + e : m;
}

/** Box-filter a level down by 2x in each dimension (min 1). */
TextureImage
downsample(const TextureImage &src)
{
    unsigned w = std::max(1u, src.width() / 2);
    unsigned h = std::max(1u, src.height() / 2);
    TextureImage dst(w, h);
    for (unsigned y = 0; y < h; ++y) {
        for (unsigned x = 0; x < w; ++x) {
            unsigned sx0 = std::min(2 * x, src.width() - 1);
            unsigned sx1 = std::min(2 * x + 1, src.width() - 1);
            unsigned sy0 = std::min(2 * y, src.height() - 1);
            unsigned sy1 = std::min(2 * y + 1, src.height() - 1);
            ColorF c = (unpackColor(src.texel(sx0, sy0)) +
                        unpackColor(src.texel(sx1, sy0)) +
                        unpackColor(src.texel(sx0, sy1)) +
                        unpackColor(src.texel(sx1, sy1))) *
                       0.25f;
            dst.setTexel(x, y, packColor(c));
        }
    }
    return dst;
}

} // namespace

TextureImage::TextureImage(unsigned width, unsigned height)
    : width_(width), height_(height)
{
    TEXPIM_ASSERT(width > 0 && height > 0, "empty texture image");
    pixels_.assign(size_t(width) * height, Rgba8{});
}

Rgba8
TextureImage::texel(unsigned x, unsigned y) const
{
    TEXPIM_ASSERT(x < width_ && y < height_,
                  "texel (", x, ",", y, ") out of ", width_, "x", height_);
    return pixels_[size_t(y) * width_ + x];
}

void
TextureImage::setTexel(unsigned x, unsigned y, Rgba8 c)
{
    TEXPIM_ASSERT(x < width_ && y < height_, "texel write out of range");
    pixels_[size_t(y) * width_ + x] = c;
}

Texture::Texture(std::string name, TextureImage base, Addr base_addr,
                 TexelFormat format)
    : name_(std::move(name)), base_addr_(base_addr), format_(format)
{
    TEXPIM_ASSERT(isPowerOfTwo(base.width()) && isPowerOfTwo(base.height()),
                  "texture '", name_, "' dimensions must be powers of two");

    // Mips are filtered from the pristine image, then each level is
    // independently stored in the target format (the standard BC1
    // authoring pipeline).
    levels_.push_back(std::move(base));
    while (levels_.back().width() > 1 || levels_.back().height() > 1)
        levels_.push_back(downsample(levels_.back()));

    if (format_ == TexelFormat::Bc1) {
        for (auto &l : levels_)
            l = bc1RoundTrip(l);
    }

    u64 off = 0;
    for (const auto &l : levels_) {
        level_offsets_.push_back(off);
        off += format_ == TexelFormat::Bc1
                   ? bc1Bytes(l.width(), l.height())
                   : u64(l.width()) * l.height() * kBytesPerTexel;
    }
    byte_size_ = off;
}

namespace {

/**
 * Morton (Z-order) texel swizzle: interleave the low bits of x and y,
 * then append the leftover high bits of the longer dimension. GPUs
 * store textures tiled/swizzled exactly so that 2D filter footprints
 * spread across DRAM channels and stay within DRAM rows.
 */
u64
mortonIndex(unsigned x, unsigned y, unsigned width, unsigned height)
{
    unsigned common = std::min(width, height);
    unsigned shared_bits = 0;
    for (unsigned m = 1; m < common; m <<= 1)
        ++shared_bits;
    u64 low_mask = (u64(1) << shared_bits) - 1;
    u64 idx = detail::part1by1(x & low_mask) |
              (detail::part1by1(y & low_mask) << 1);
    if (width > height)
        idx |= u64(x >> shared_bits) << (2 * shared_bits);
    else if (height > width)
        idx |= u64(y >> shared_bits) << (2 * shared_bits);
    return idx;
}

unsigned
log2PowerOfTwo(unsigned v)
{
    TEXPIM_ASSERT(isPowerOfTwo(v), "log2 of non-power-of-two ", v);
    unsigned b = 0;
    while ((1u << b) < v)
        ++b;
    return b;
}

} // namespace

Addr
Texture::texelAddr(unsigned l, int x, int y) const
{
    const TextureImage &img = level(l);
    unsigned wx = unsigned(wrapCoord(x, img.width()));
    unsigned wy = unsigned(wrapCoord(y, img.height()));
    if (format_ == TexelFormat::Bc1) {
        // Address of the 8-byte 4x4 block holding the texel; blocks
        // themselves are Morton-ordered.
        unsigned bw = std::max(1u, (img.width() + 3) / 4);
        unsigned bh = std::max(1u, (img.height() + 3) / 4);
        return base_addr_ + level_offsets_[l] +
               mortonIndex(wx / 4, wy / 4, bw, bh) * sizeof(Bc1Block);
    }
    return base_addr_ + level_offsets_[l] +
           mortonIndex(wx, wy, img.width(), img.height()) * kBytesPerTexel;
}

MipView
Texture::mipView(unsigned l) const
{
    const TextureImage &img = level(l);
    MipView v;
    v.pixels = img.pixels().data();
    v.levelBase = base_addr_ + level_offsets_.at(l);
    v.xMask = img.width() - 1;
    v.yMask = img.height() - 1;
    v.rowShift = log2PowerOfTwo(img.width());
    if (format_ == TexelFormat::Bc1) {
        unsigned bw = std::max(1u, (img.width() + 3) / 4);
        unsigned bh = std::max(1u, (img.height() + 3) / 4);
        v.coordShift = 2;
        v.unitShift = 3; // sizeof(Bc1Block) == 8
        v.sharedBits = log2PowerOfTwo(std::min(bw, bh));
        v.xMajor = bw > bh;
    } else {
        v.coordShift = 0;
        v.unitShift = 2; // kBytesPerTexel == 4
        v.sharedBits = log2PowerOfTwo(std::min(img.width(), img.height()));
        v.xMajor = img.width() > img.height();
    }
    v.lowMask = (1u << v.sharedBits) - 1;
    return v;
}

Rgba8
Texture::fetchTexel(unsigned l, int x, int y) const
{
    const TextureImage &img = level(l);
    unsigned wx = unsigned(wrapCoord(x, img.width()));
    unsigned wy = unsigned(wrapCoord(y, img.height()));
    return img.texel(wx, wy);
}

u32
TextureStore::add(std::string name, TextureImage base, TexelFormat format)
{
    // 4 KiB-align each texture so address mapping spreads textures
    // across channels / vaults.
    constexpr Addr align = 4096;
    Addr base_addr = (next_addr_ + align - 1) & ~(align - 1);
    auto tex = std::make_unique<Texture>(std::move(name), std::move(base),
                                         base_addr, format);
    next_addr_ = base_addr + tex->byteSize();
    textures_.push_back(std::move(tex));
    return u32(textures_.size() - 1);
}

const Texture &
TextureStore::texture(u32 id) const
{
    TEXPIM_ASSERT(id < textures_.size(), "bad texture id ", id);
    return *textures_[id];
}

} // namespace texpim
