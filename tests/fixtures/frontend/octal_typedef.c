/* An octal constant and a typedef'd double: each thread stores
 * (017 - 8) / 2 = 3.5, so main prints 7.000000 (C semantics). */
#include <stdio.h>
#include <pthread.h>

typedef double real;

real part[2];

real half(real, int);

real half(real value, int parts) {
    return value / parts;
}

void *work(void *arg) {
    int id = (int)arg;
    int scale = 017;
    real x = (real)scale - 8;
    part[id] = half(x, 2);
    pthread_exit(NULL);
}

int main() {
    pthread_t threads[2];
    int i;
    for (i = 0; i < 2; i++) {
        pthread_create(&threads[i], NULL, work, (void *)i);
    }
    for (i = 0; i < 2; i++) {
        pthread_join(threads[i], NULL);
    }
    printf("%f\n", part[0] + part[1]);
    return 0;
}
