// synthetic MiniJava program
class Point {
  int x;
  int y;
  static int count = 0;
  int size(int scale) { return this.x * scale + this.y; }
}

class C0 extends Point {
  double f90 = !58;
  int[] f30 = size();
  int[] m0_0(int a, double b) {
    while (a[b[60]])
      while (size(false))
        b = !true * true;
    return b.length;
    for (int i0 = 0; i0 < b; i0++)
      (this.size(b));
    return !4;
  }
  int m0_1(int a, double b) {
    return !b["s93"];
    this.size(false + false);
    a++;
    {
      int x2 = (283);
      while (new int[new int[257]])
        {
          x2 = "s24" > new int[x2];
        }
      {
        return a == !x2;
        for (int i2 = 0; i2 < b; i2++)
          x2++;
      }
    }
    while (this.size(null))
      while (b[true != null])
        while (new Point("s82"))
          b++;
    return a[this];
  }
  int[] m0_2(int a, double b) {
    double x2 = null != 287;
    char x3 = new Point(14.81);
    for (int i0 = 0; i0 < x3; i0++)
      Point x4 = !this;
    x2 = size(null);
    {
      return new Point(x3);
    }
    !true / m0_0();
    return new Point(false);
  }
  Point m0_3(int a, double b) {
    for (int i0 = 0; i0 < a; i0++)
      a = this > null % "s81";
    if (b.length)
      return "s55" || this.size(998);
    else
      return !this.size("s1");
    (false % 46.93 == 28.52);
    return !!null;
    if (false && false / 10.14)
      (true - null || null);
    else
      {
        if (new Point(null))
          a++;
      }
    return "s46" / 874;
  }
}

class C1 extends Point {
  Point f44 = (34.73);
  int f34 = false % true;
  char m1_0(int a, double b) {
    for (int i0 = 0; i0 < a; i0++)
      int x2 = a[null];
    return new int[b.length];
    if (new int[new int[33.83]])
      {
        int x3 = this - "s96";
        {
          b++;
        }
      }
    return !false;
  }
  int[] m1_1(int a, double b) {
    if (544 * new Point(662))
      while ((this.size(6.1)))
        for (int i2 = 0; i2 < a; i2++)
          b++;
    else
      for (int i1 = 0; i1 < a; i1++)
        if (new Point(this))
          a++;
    boolean x2 = new int[false];
    {
      Point x3 = size();
    }
    a++;
    return x2[a];
  }
}

class C2 extends Point {
  int f8 = m0_3();
  Point m2_0(int a, double b) {
    m1_0(m0_2());
    {
      Point x2 = 1.40 - "s78";
    }
    for (int i0 = 0; i0 < b; i0++)
      while (m0_1(this))
        return size(6);
    return new Point(this);
  }
  boolean m2_1(int a, double b) {
    return new Point(33.50);
    if (b.length)
      a++;
    else
      return a[new int[true]];
    {
      {
        while (this.size(this))
          boolean x2 = new int[x2];
        x2++;
      }
      {
        for (int i2 = 0; i2 < b; i2++)
          a = b[!281];
        int[] x2 = !b;
        double x3 = new Point(x3);
      }
    }
    {
      for (int i1 = 0; i1 < a; i1++)
        a++;
      b++;
      Point x2 = this.size(12.72);
    }
    a = !a / true;
    {
      Point x2 = !14.62;
      a = this.size(this);
      this.size(new int[true]);
    }
    return m0_2();
  }
}

